#!/usr/bin/env python3
"""magset benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload construct --seed 0 --seconds 30 --trace 0

Runs one workload (``construct``, ``certify`` or ``codes``; ``all`` runs
each in a fresh interpreter) through magset's public functions, checks
every output against an independent reference, prints every metric by
name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with nothing
patched.  ``--trace 1`` also runs two traced passes and reports the
per-layer metrics instead.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

TRACED_PASSES = 2

# (name, unit, better, bound) -- the bound is the share of the parent's
# median by which the metric may worsen; BENCHMARK.json repeats these.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)
# Printed by the codes workload only, so not in BENCHMARK.json.
CODES_EXTRAS = (
    ("encode_words_per_s", "words/s", "higher", 0.25),
    ("decode_words_per_s", "words/s", "higher", 0.25),
    ("decode_p50_ms", "ms", "lower", 0.25),
    ("decode_p99_ms", "ms", "lower", 0.25),
    ("simulate_trials_per_s", "trials/s", "higher", 0.25),
)
PER_LAYER = (
    ("verifier.calls", "count", "lower"),
    ("verifier.self_s", "s", "lower"),
    ("verifier.products", "count", "lower"),
    ("verifier.products_per_s", "1/s", "higher"),
    ("verifier.rejections", "count", "lower"),
    ("verifier.syndrome_table_s", "s", "lower"),
    ("numtheory.calls", "count", "lower"),
    ("numtheory.self_s", "s", "lower"),
    ("numtheory.cache_hit_ratio", "ratio", "higher"),
    ("residues.calls", "count", "lower"),
    ("residues.self_s", "s", "lower"),
    ("residues.scanned", "count", "lower"),
    ("constructions.self_s", "s", "lower"),
    ("constructions.route_k1_s", "s", "lower"),
    ("constructions.route_k2_s", "s", "lower"),
    ("constructions.route_k3plus_s", "s", "lower"),
    ("constructions.pieces", "count", "lower"),
    ("constructions.certified_ratio", "ratio", "higher"),
    ("constructions.refine_searches", "count", "lower"),
    ("search.self_s", "s", "lower"),
    ("search.proof_nodes", "count", "lower"),
    ("search.proof_s", "s", "lower"),
    ("search.nodes_per_s", "1/s", "higher"),
    ("search.witness_s", "s", "lower"),
    ("search.graph_s", "s", "lower"),
    ("search.graph_vertices", "count", "lower"),
    ("search.graph_edges", "count", "lower"),
    ("search.exact_ratio", "ratio", "higher"),
    ("search.in_class_calls", "count", "lower"),
    ("search.in_class_s", "s", "lower"),
    ("search.in_class_nodes", "count", "lower"),
    ("codec.self_s", "s", "lower"),
    ("codec.make_code_s", "s", "lower"),
    ("codec.encode_self_s", "s", "lower"),
    ("codec.symbols_per_s", "1/s", "higher"),
    ("codec.decode_self_s", "s", "lower"),
    ("codec.outcome.clean", "count", "higher"),
    ("codec.outcome.corrected", "count", "higher"),
    ("codec.outcome.detected", "count", "higher"),
    ("codec.outcome.miscorrected", "count", "lower"),
    ("codec.simulate_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("src.lines", "count", "lower"),
)
# Counts that must repeat exactly between passes (and runs) of one code.
EXACT_COUNTS = tuple(name for name, unit, _ in PER_LAYER
                     if unit == "count" and name != "src.lines") + (
    "numtheory.cache_hits", "numtheory.cache_misses")


class Lib:
    """The library entry points the benchmark calls, traced or not."""

    ENTRY = {"construct": "constructions", "exact_max": "search",
             "make_code": "codec", "encode": "codec", "decode": "codec",
             "is_b1_set": "verifier", "main": "cli"}

    def __init__(self, mods: dict, tmpdir: str, tracer=None) -> None:
        self.mods = mods
        self.tmpdir = tmpdir
        for name, layer in self.ENTRY.items():
            fn = getattr(mods[layer], name)
            setattr(self, name, tracer.wrap(fn, layer) if tracer else fn)
        self.budget = mods["search"].Budget(
            max_nodes=workloads.BUDGET_NODES, max_seconds=math.inf)
        self.UnknownSyndromeError = mods["codec"].UnknownSyndromeError
        self.reference = mods["verifier"].is_b1_set_reference
        self.caches = [obj for mod in mods.values() for obj in vars(mod).values()
                       if hasattr(obj, "cache_clear")
                       and obj.__module__ == mod.__name__]

    def clear_caches(self) -> None:
        for fn in self.caches:
            fn.cache_clear()

    def numtheory_cache_stats(self) -> tuple:
        infos = [fn.cache_info() for fn in self.caches
                 if fn.__module__ == "magset.numtheory"]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)


def load_lib(tmpdir: str) -> Lib:
    """Import magset afresh, so module state and caches start cold."""
    for name in [n for n in sys.modules
                 if n == "magset" or n.startswith("magset.")]:
        del sys.modules[name]
    importlib.import_module("magset")
    mods = {layer: importlib.import_module(f"magset.{layer}")
            for layer in tracing.LAYERS}
    return Lib(mods, tmpdir)


def src_lines() -> int:
    pkg = os.path.join(SRC, "magset")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def host() -> str:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"Python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"{model}")


def one_pass(wl, lib: Lib, inp, tracer=None) -> tuple:
    """One pass from cold caches: (timer, pass seconds, checks, metrics)."""
    lib.clear_caches()
    gc.collect()
    timer = workloads.Timer()
    metrics = None
    if tracer is None:
        t0 = time.perf_counter()
        out = wl.run_pass(lib, inp, timer)
        total = time.perf_counter() - t0 - timer.excluded
    else:
        tracer.reset()
        with tracer.span("bench.pass", "bench"):
            out = wl.run_pass(lib, inp, timer)
        hits, misses = lib.numtheory_cache_stats()
        metrics = tracing.pass_metrics(tracer.spans, 0, timer.excluded,
                                       hits, misses)
        metrics["search_calls"] = tracing.search_calls(tracer.spans)
        total = metrics["trace.wall_s"]
    checked = wl.check(lib, inp, out)
    return timer, total, checked, metrics


def best_sum(timers: list, keep=lambda label: True) -> float:
    """Sum over the pass's calls of each call's fastest time in the run."""
    return sum(min(t.ops[label] for t in timers)
               for label in timers[0].ops if keep(label))


def percentile(values: list, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def codes_extras(timers: list, inp) -> dict:
    def kind(name):
        return lambda label: isinstance(label, tuple) and label[0] == name

    words = len(inp.words)
    decodes = [t.ops[label] for t in timers for label in t.ops
               if kind("decode")(label)]
    return {
        "encode_words_per_s": words / best_sum(timers, kind("encode")),
        "decode_words_per_s": words / best_sum(timers, kind("decode")),
        "decode_p50_ms": 1000 * statistics.median(decodes),
        "decode_p99_ms": 1000 * percentile(decodes, 0.99),
        "decode_samples": len(decodes),
        "simulate_trials_per_s": inp.trials / min(t.ops["simulate"]
                                                  for t in timers),
    }


def show(name: str, value, unit: str) -> str:
    text = f"{value:d}" if isinstance(value, int) else f"{value:.6f}"
    return f"{name:<34} {text:>18} {unit}"


def run_workload(args, tmpdir: str) -> int:
    wl = workloads.WORKLOADS[args.workload](args.tiny)
    setup = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        lib = load_lib(tmpdir)
        inp = wl.setup(lib, args.seed)
        setup.append(time.perf_counter() - t0)

    timers, totals, checks = [], [], []
    t_start = time.perf_counter()
    while (len(timers) < wl.min_passes
           or time.perf_counter() - t_start < args.seconds):
        timer, total, checked, _ = one_pass(wl, lib, inp)
        timers.append(timer)
        totals.append(total)
        checks.append(checked)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    e2e = {"setup_s": statistics.median(setup),
           "wall_s": best_sum(timers),
           "peak_rss_mb": peak_rss_mb}
    self_checks = []
    if len(checks) > 1:
        same = all(c.signature == checks[0].signature for c in checks)
        self_checks.append(("untraced passes repeat exact outputs", same))

    layer = {}
    if args.trace:
        tracer = tracing.Tracer()
        tlib = Lib(lib.mods, tmpdir, tracer)
        traced = []
        with tracer.patched(lib.mods):
            for _ in range(TRACED_PASSES):
                _, _, checked, metrics = one_pass(wl, tlib, inp, tracer)
                checks.append(checked)
                metrics.update({f"codec.outcome.{k}": v
                                for k, v in checked.outcomes.items()})
                traced.append(metrics)
        tracer.reset()
        layer = layer_metrics(lib, traced, statistics.median(totals))
        same = all(all(m.get(k, 0) == traced[0].get(k, 0)
                       for k in EXACT_COUNTS) for m in traced)
        self_checks.append(("traced passes repeat exact counts", same))
        accounted = sum(traced[0][f"{n}.self_s"]
                        for n in tracing.LAYERS + ("bench",))
        self_checks.append((
            "layer self times account for the traced wall time",
            abs(accounted - traced[0]["trace.wall_s"])
            <= 1e-6 * max(1.0, traced[0]["trace.wall_s"])))

    attempted = sum(c.ops for c in checks) + len(self_checks)
    failed = (sum(c.failed_ops for c in checks)
              + sum(1 for _, ok in self_checks if not ok))
    extras = codes_extras(timers, inp) if wl.name == "codes" else {}

    print(f"magset benchmark: workload {wl.name}, seed {args.seed}, "
          f"{len(timers)} timed passes in {args.seconds} s"
          f"{', tiny ladder' if args.tiny else ''}")
    print(f"host: {host()}")
    print("caches cleared before each pass: "
          + ", ".join(f"{fn.__module__}.{fn.__name__}" for fn in lib.caches))
    for line in wl.describe(inp):
        print(f"  {line}")
    print(f"pass totals (s): {', '.join(f'{w:.4f}' for w in totals)}; "
          f"setup reps (s): {', '.join(f'{s:.4f}' for s in setup)}")
    for name, unit, _, _ in END_TO_END:
        print(show(name, e2e[name], unit))
    for name, unit, _, _ in CODES_EXTRAS if extras else ():
        print(show(name, extras[name], unit))
    if extras:
        print(show("decode_samples", extras["decode_samples"], "count"))
    print(show("fail_ratio", failed / attempted, "failed/attempted")
          + f" ({failed} of {attempted})")
    for name, unit, _ in PER_LAYER if layer else ():
        print(show(name, layer[name], unit))
    for label, ok in self_checks:
        print(f"self-check: {label}: {'ok' if ok else 'FAILED'}")
    for key, value in checks[0].info.items():
        print(f"info: {key}: {value}")
    for c in checks:
        for op, message in c.errors[:20]:
            print(f"FAIL {op}: {message}")

    record = {"workload": wl.name, "seed": args.seed, "host": host(),
              "end_to_end": e2e, "extras": extras, "per_layer": layer,
              "passes": totals, "setup_reps": setup,
              "info": checks[0].info}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
    spec = PER_LAYER if args.trace else END_TO_END
    source = layer if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit, *_ in spec},
    }))
    return 0


def layer_metrics(lib: Lib, traced: list, untraced_wall: float) -> dict:
    """Median over traced passes, plus the proof-only companion calls."""
    out = {}
    for name, unit, _ in PER_LAYER:
        values = [m[name] for m in traced if name in m]
        if values:
            out[name] = (values[0] if unit == "count"
                         else statistics.median(values))
    # Proof phase alone: the same searches without the lex-min witness.
    exact_max = lib.mods["search"].exact_max
    proof_s = 0.0
    for call in traced[0]["search_calls"]:
        t0 = time.perf_counter()
        exact_max(call["q"], call["lam"], budget=call["budget"],
                  lex_witness=False, unit_split=call["unit_split"])
        proof_s += time.perf_counter() - t0
    full_s = statistics.median(m["search.full_s"] for m in traced)
    out["search.proof_s"] = proof_s
    out["search.witness_s"] = max(0.0, full_s - proof_s)
    out["search.nodes_per_s"] = (out["search.proof_nodes"] / proof_s
                                 if proof_s > 0 else 0.0)
    out["trace.overhead_ratio"] = out["trace.wall_s"] / untraced_wall
    out["src.lines"] = src_lines()
    for name in ("numtheory.cache_hits", "numtheory.cache_misses"):
        out[name] = traced[0][name]
    return out


def run_all(args) -> int:
    """Each workload in its own interpreter, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v
                                  for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the default ladder")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="keep starting passes until this much time "
                             "has passed (each workload has a minimum)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced passes, report per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny ladders, for the benchmark's smoke test")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the full record as JSON")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "magset", "__init__.py")):
        print(f"error: magset sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tmpdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        return run_workload(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
