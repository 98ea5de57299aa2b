#!/usr/bin/env python3
"""Smoke test of the benchmark itself (a few seconds).

    python3 bench/selftest.py

1. ``BENCHMARK.json`` lists exactly the metrics, units, directions and
   bounds that ``run.py`` reports.
2. Two traced runs of every workload on the tiny ladders pass all checks
   and report identical exact counts.
3. Without the magset sources next to it, the benchmark exits non-zero
   and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def check_spec() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"], m["better"], m["bound"])
           for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END), "BENCHMARK.json end_to_end differs"
    assert layer == list(run.PER_LAYER), "BENCHMARK.json per_layer differs"
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.workloads.WORKLOADS), "workloads differ"


def tiny_run(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "0", "--seconds", "0", "--trace", "1", "--tiny"],
        stdout=subprocess.PIPE, text=True, check=False)
    assert proc.returncode == 0, f"{name}: exit code {proc.returncode}"
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == {m[0] for m in run.PER_LAYER}
    return result["metrics"]


def check_repeat() -> None:
    counts = [name for name, unit, _ in run.PER_LAYER if unit == "count"]
    for name in run.workloads.WORKLOADS:
        first, second = tiny_run(name), tiny_run(name)
        differ = [c for c in counts
                  if first[c]["value"] != second[c]["value"]]
        assert not differ, f"{name}: counts differ between runs: {differ}"
        print(f"{name}: two tiny traced runs agree on {len(counts)} counts")


def check_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT,
                                     prefix=".bench-tmp-self-") as tmp:
        shutil.copytree(HERE, os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "construct",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=False, timeout=180)
        assert proc.returncode != 0, "ran without the magset sources"
        assert '"correct"' not in proc.stdout, "printed a result"
    print("without sources: exit code", proc.returncode, "and no result")


def main() -> int:
    check_spec()
    check_repeat()
    check_without_sources()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
