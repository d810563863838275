#!/usr/bin/env python3
"""Self-test of the benchmark harness; gates on no timing.

    python3 bench/selftest.py

Checks that BENCHMARK.json and layer_map.json parse and agree with the
harness, smoke-runs every workload at reduced size (end to end and traced)
and requires every output to validate with exactly the declared metrics,
and checks that a directory holding only the benchmark fails without
printing a result.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: {message}")


def check_schema(bench: dict) -> None:
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys {sorted(bench)}")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    check(bench["paths"] == ["bench"], "paths")
    names = [w["name"] for w in bench["workloads"]]
    check(names == list(WORKLOADS), f"workloads {names} != {list(WORKLOADS)}")
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], f"workload {w}")
    seen = set()
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}), ("per_layer", {"name", "unit", "better"})):
        for metric in bench[group]:
            check(set(metric) == keys, f"{group} keys {metric}")
            check(NAME.fullmatch(metric["name"]) is not None and metric["name"] not in seen, f"name {metric}")
            check(UNIT.fullmatch(metric["unit"]) is not None, f"unit {metric}")
            check(metric["better"] in ("lower", "higher"), f"better {metric}")
            seen.add(metric["name"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values()), "bounds within (0, 0.25]")
    check(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")


def check_layer_map(bench: dict) -> None:
    layer_map = json.loads((run.ROOT / "bench" / "layer_map.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for entry in layer_map["map"]:
        check(set(entry["per_layer"]) <= per_layer, f"layer map names unknown metrics: {entry['per_layer']}")
        check(set(entry["moves"]) <= end_to_end, f"layer map moves unknown metrics: {entry['moves']}")
        workloads = set(entry["on"]) | set(entry.get("unchanged_on", []))
        check(workloads <= set(WORKLOADS), f"layer map names unknown workloads: {sorted(workloads)}")


def recorder_binds_and_skips() -> None:
    """Wrappers reach every namespace binding a function; missing names go absent."""
    from spans import Recorder

    run.load_program()
    import arstat.bargmann
    import arstat.droplet
    import arstat.starprod

    original = arstat.bargmann.coherent_vector
    removed = arstat.droplet.crossing_rho
    del arstat.droplet.crossing_rho
    try:
        with Recorder() as recorder:
            wrapped = arstat.starprod.coherent_vector
            check(wrapped is arstat.bargmann.coherent_vector and wrapped is not original,
                  "coherent_vector not wrapped in every namespace")
        metrics, absent = recorder.metrics()
    finally:
        arstat.droplet.crossing_rho = removed
    check(arstat.starprod.coherent_vector is original, "wrappers not removed on exit")
    check("droplet.crossing_rho.calls" in absent and "droplet.crossing_rho.calls" not in metrics,
          "a missing function is not reported absent")


def smoke(bench: dict) -> None:
    expected = {
        False: [m["name"] for m in bench["end_to_end"]],
        True: [m["name"] for m in bench["per_layer"]],
    }
    for name in WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(name, seed=7, seconds=0, trace=trace, smoke=True)
            json.dumps(result)
            check(result["correct"] and result["failed"] == 0, f"{name} trace={trace} failed validation")
            check(result["attempted"] >= 1, f"{name} attempted nothing")
            check(sorted(result["metrics"]) == sorted(expected[trace]),
                  f"{name} trace={trace} metrics differ from BENCHMARK.json: "
                  f"{sorted(set(result['metrics']) ^ set(expected[trace]))}")


def bare_directory_fails() -> None:
    bare = run.TMP / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in (run.ROOT / "bench").glob("*.*"):
            shutil.copy(path, bare / "bench")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "star-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0, "a directory without the program exited 0")
        check('"correct"' not in proc.stdout, "a directory without the program printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if run.TMP.exists() and not any(run.TMP.iterdir()):
            run.TMP.rmdir()


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_schema(bench)
    check_layer_map(bench)
    bare_directory_fails()
    recorder_binds_and_skips()
    smoke(bench)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
