"""Start command children from a small process and account for each one.

Linux carries a process's peak RSS across exec, so a child forked from the
benchmark (which holds numpy and scipy for validation) would report the
benchmark's memory as its own.  This process imports only the standard
library; the benchmark starts it first and sends it one request per line:

    {"args": [...], "cwd": "...", "env": {...}, "timeout": 120}

and reads back one line per child, from ``os.wait4`` on exactly that child:

    {"wall_s": ..., "cpu_s": ..., "maxrss_kib": ..., "returncode": ...}

``returncode`` is null when the child ran past its timeout and was killed.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _on_alarm(signum, frame):
    raise TimeoutError


def run(request: dict) -> dict:
    cwd = request["cwd"]
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["args"], cwd=cwd, env=request["env"], stdout=out, stderr=err)
        signal.alarm(request["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            return {"wall_s": None, "cpu_s": None, "maxrss_kib": None, "returncode": None}
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "returncode": proc.returncode,
    }


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
