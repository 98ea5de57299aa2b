#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload codes --seeds 1-10

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
every end-to-end metric (and the codes extras) the median and the
distance between the first and third quartile as a share of the median,
next to the metric's bound.  A benchmark is steady when every spread but
that of ``setup_s`` stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()
    bounds = {name: (unit, bound) for name, unit, _, bound
              in run.END_TO_END + run.CODES_EXTRAS}
    values = {name: [] for name in bounds}
    failures = 0
    with tempfile.TemporaryDirectory(dir=run.ROOT,
                                     prefix=".bench-tmp-spread-") as tmp:
        for seed in args.seeds:
            out = os.path.join(tmp, f"{seed}.json")
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 args.workload, "--seed", str(seed), "--seconds",
                 args.seconds, "--trace", "0", "--out", out],
                stdout=subprocess.PIPE, text=True, check=False)
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            failures += result["failed"] + (proc.returncode != 0)
            with open(out, encoding="utf-8") as fh:
                record = json.load(fh)
            merged = {**record["end_to_end"], **record["extras"]}
            for name in values:
                if name in merged:
                    values[name].append(merged[name])
            print(f"seed {seed}: " + ", ".join(
                f"{k}={v:.4f}" for k, v in merged.items() if k in bounds),
                flush=True)
    print(f"failed ops over all runs: {failures}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        unit, bound = bounds[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        verdict = ("ok" if spread < bound / 3 else
                   "within bound" if spread < bound else "TOO WIDE")
        print(f"{name:<24} median {med:12.4f} {unit:<9} spread "
              f"{spread:6.3f}  bound {bound:.2f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
