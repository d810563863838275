#!/usr/bin/env python3
"""Benchmark of the arstat commands, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  ``--trace 0`` runs the workload's command as fresh
``python -m arstat`` subprocesses for ``--seconds`` and reports the
end-to-end metrics: the mean wall and CPU time of one command child and
of a fresh ``import arstat.cli`` (set-up), and the median peak RSS of one
command child.
``--trace 1`` replays the same command in-process through
``arstat.cli.main``, alternately untraced and with layer spans recorded
(``spans.py``), and reports the per-layer metrics.  Every command's output
is validated against references the benchmark computes (``workloads.py``).
The last line of standard output is one JSON object; the exit code is 0
only if every run validated.
"""

from __future__ import annotations

import os

# One BLAS thread in the command children and in the in-process replays:
# on a shared 2-core machine two threads spread single runs far more than
# they save.  Set before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a child hung)."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ARSTAT_OUT_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env.update(BLAS_ENV)
    return env


class Spawner:
    """Client of ``spawner.py``, which starts and accounts for each child."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, args: list[str], cwd: Path) -> Sample:
        request = {"args": [sys.executable, *args], "cwd": str(cwd), "env": child_env(), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the child spawner exited")
        result = json.loads(reply)
        if result["returncode"] is None:
            raise BenchError(f"child {args[:3]} ran past {CHILD_TIMEOUT_S}s")
        problems = []
        if result["returncode"] != 0:
            tail = (cwd / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            problems.append(f"exit code {result['returncode']}: {' '.join(tail)}")
        return Sample(
            wall_s=result["wall_s"],
            cpu_s=result["cpu_s"],
            peak_rss_mb=result["maxrss_kib"] / 1024.0,  # ru_maxrss is KiB on Linux
            problems=problems,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # the spawner exits at end of input
        self.proc.stdout.close()
        self.proc.wait()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def remove_stale_run_dirs() -> None:
    """Remove what runs that were killed before their clean-up left behind."""
    for path in TMP.glob("run-*"):
        pid = path.name.removeprefix("run-")
        if pid.isdigit() and not pid_alive(int(pid)):
            shutil.rmtree(path, ignore_errors=True)


class RunDir:
    """Fresh per-command directories under the checkout's .bench_tmp/.

    The benchmark writes only inside its checkout, so the temporary configs
    and ``--out`` directories live there rather than in the system's
    temporary directory.
    """

    def __init__(self):
        TMP.mkdir(exist_ok=True)
        remove_stale_run_dirs()
        self.base = TMP / f"run-{os.getpid()}"
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir()
        self.count = 0

    def fresh(self, case) -> tuple[Path, Path, Path]:
        self.count += 1
        work = self.base / str(self.count)
        work.mkdir()
        config = work / "config.ini"
        config.write_text(case.ini())
        return work, config, work / "out"

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()


def keep_going(start: float, seconds: float, durations: list[float]) -> bool:
    """Start another iteration only if it is expected to end inside the window."""
    if not durations:
        return True
    return time.perf_counter() - start + durations[-1] <= seconds


# -------------------------------------------------------------- end to end

SETUP_ARGS = ["-c", "import arstat.cli"]


def run_end_to_end(workload, seed: int, seconds: float, smoke: bool, dirs: RunDir) -> tuple[dict, int, int]:
    """Closed loop of (fresh import, command) child pairs for ``seconds``."""
    case = workload.make(seed, smoke)
    setups: list[Sample] = []
    samples: list[Sample] = []
    durations: list[float] = []
    with Spawner() as spawner:
        warm_dir = dirs.base / "warm"
        warm_dir.mkdir()
        warm = spawner.run(SETUP_ARGS, warm_dir)  # writes bytecode caches; not timed
        if warm.problems:
            raise BenchError(f"import arstat.cli failed: {warm.problems[0]}")
        start = time.perf_counter()
        while keep_going(start, seconds, durations):
            began = time.perf_counter()
            work, config, out = dirs.fresh(case)
            setups.append(spawner.run(SETUP_ARGS, work))
            sample = spawner.run(["-m", "arstat", *case.argv(config, out)], work)
            if not sample.problems:
                sample.problems = workload.check(case, out)
            sample.problems = [f"import: {p}" for p in setups[-1].problems] + sample.problems
            samples.append(sample)
            shutil.rmtree(work)
            durations.append(time.perf_counter() - began)
    failed = sum(1 for s in samples if s.problems)
    for s in samples:
        for problem in s.problems:
            print(f"FAILED: {problem}")
    n = len(samples)
    metrics = {
        # Means, not medians or low quantiles: the host switches between two
        # speeds about 1.7x apart for seconds to minutes at a time.  A mean
        # moves smoothly with the share of slow samples in the window; a
        # median or a low quantile jumps between the two speeds.
        "wall_s": (statistics.fmean([s.wall_s for s in samples]), "s", n),
        "cpu_s": (statistics.fmean([s.cpu_s for s in samples]), "s", n),
        "setup_s": (statistics.fmean([s.wall_s for s in setups]), "s", n),
        "peak_rss_mb": (statistics.median([s.peak_rss_mb for s in samples]), "MiB", n),
    }
    print("samples wall_s " + " ".join(f"{s.wall_s:.3f}" for s in samples))
    print("samples setup_s " + " ".join(f"{s.wall_s:.3f}" for s in setups))
    print(f"failed_frac {failed / n:.6g} 1 ({failed} of {n} command runs)")
    return metrics, n, failed


# --------------------------------------------------------------- per layer

def load_program():
    sys.path.insert(0, str(SRC))
    import arstat.cli

    if not Path(arstat.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"arstat imported from {arstat.cli.__file__}, not from {SRC}")
    return arstat.cli


def replay(cli, workload, case, dirs: RunDir, recorder=None) -> tuple[float, list[str], int]:
    """One in-process run of the command; returns (seconds, problems, out bytes)."""
    work, config, out = dirs.fresh(case)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with recorder if recorder is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                code = cli.main(case.argv(config, out))
            except Exception as exc:  # a crash is a failed run, as a child's traceback is
                code = repr(exc)
            elapsed = time.perf_counter() - start
    problems = [f"exit code {code}"] if code != 0 else workload.check(case, out)
    size = dir_bytes(out) if out.exists() else 0
    shutil.rmtree(work)
    return elapsed, problems, size


def run_traced(workload, seed: int, seconds: float, smoke: bool, dirs: RunDir) -> tuple[dict, int, int]:
    from spans import Recorder

    cli = load_program()
    case = workload.make(seed, smoke)
    plain, traced, layer_runs, problems, sizes, durations = [], [], [], [], [], []
    start = time.perf_counter()
    while keep_going(start, seconds, durations):
        began = time.perf_counter()
        elapsed, bad, size = replay(cli, workload, case, dirs)
        plain.append(elapsed)
        problems.append(bad)
        recorder = Recorder()
        elapsed, bad, size = replay(cli, workload, case, dirs, recorder)
        traced.append(elapsed)
        problems.append(bad)
        sizes.append(size)
        layer_runs.append(recorder.metrics())
        durations.append(time.perf_counter() - began)
    for bad in problems:
        for problem in bad:
            print(f"FAILED: {problem}")
    failed = sum(1 for bad in problems if bad)
    n = len(traced)
    absent = layer_runs[0][1]
    if absent:
        print(f"absent (no such function in this build): {', '.join(absent)}")
    metrics = {
        name: (statistics.median([run[0][name][0] for run in layer_runs]), unit, n)
        for name, (_, unit) in layer_runs[0][0].items()
    }
    metrics["cli.out_bytes"] = (statistics.median(sizes), "B", n)
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "1", n)
    metrics["failed_frac"] = (failed / len(problems), "1", len(problems))
    return metrics, len(problems), failed


# ----------------------------------------------------------------- report

def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_thread_env": BLAS_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload and return the result object printed as the last line."""
    from workloads import WORKLOADS

    if not (SRC / "arstat" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'arstat'} is missing")
    workload = WORKLOADS[name]
    dirs = RunDir()
    try:
        runner = run_traced if trace else run_end_to_end
        metrics, attempted, failed = runner(workload, seed, seconds, smoke, dirs)
    finally:
        dirs.close()
    for metric, (value, unit, n) in metrics.items():
        print(f"{metric} {value:.6g} {unit} (from {n} samples)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit, _) in metrics.items()},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
