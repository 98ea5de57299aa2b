"""The three seeded workloads of the magset benchmark.

Each workload is a closed loop with one caller: the next library call
starts when the previous one returns.  ``setup`` turns the seed into
inputs; ``run_pass`` makes the timed calls through ``lib`` (the library's
public functions, traced or not); ``check`` compares the outputs of one
pass with independent references, outside the timed region.

Seed 0 is the default ladder: the first member of every pool, in the
order written.  Any other seed picks one member of each pool and
shuffles the order.  A pool only holds inputs whose cost is close to
that of its first member, so that the seed changes the inputs and not
the amount of work; ``README.md`` gives the measured costs.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import operator
import os
import random
import time
from dataclasses import dataclass, field

import frozen

# Node-only budget: a cut-off (exact=False) is then the same on every
# machine.  The largest search below needs 1.2e5 nodes.
BUDGET_NODES = 3_000_000

LAM = 4


@dataclass(frozen=True)
class Slot:
    """One rung of a ladder: a pool of interchangeable inputs."""

    name: str
    pool: tuple
    why: str
    cli: bool = False


# Primes p whose piece at q = 2p is the proven-optimal n-even/s-odd
# pattern, so |B| = (p - 1) / 2 and every pick costs the same.
PRIMES_5E4 = (50021, 50069, 50093, 50131)
PRIMES_25K = (25013, 25037, 25153, 25171, 25219, 25229, 25243, 25253)
PRIMES_12K = (12547, 12601, 12653, 12697, 12721, 12763, 12821, 12893)

# Calls are kept under about 0.35 s: on a shared host a long call is
# rarely left alone for its whole length, so the fastest of a run's
# passes only settles for short calls (see README.md, "Timing").
CONSTRUCT_LADDER = (
    Slot("k1-prime-cli", tuple(2 * p for p in PRIMES_25K),
         "q = 2p: two pattern pieces, no search, the verifier sweep weighs "
         "most; run as `magset construct --q Q --json` (5e4 numbers)",
         cli=True),
    Slot("k1-prime", tuple(2 * p for p in PRIMES_12K),
         "q = 2p at half the size: the verifier's cost grows as |B| * q"),
    Slot("k1-smooth", (10010, 13090),
         "q = 2r, r a product of 4 small primes: 16 divisor pieces, so "
         "orders, cosets and divisor contexts (numtheory) weigh most"),
    Slot("k1-d49", (5390, 6370),
         "q = 2r with 49 | r: the d = 49 piece runs the in-class refine "
         "search (2e4 nodes) over residues.divisor_class"),
    Slot("k2", tuple(4 * p for p in PRIMES_25K[::-1]),
         "q = 4p: the exact r - 1 construction (2.5e4 elements)"),
    Slot("k2-half", tuple(4 * p for p in PRIMES_12K[::-1]),
         "q = 4p at half the size"),
    Slot("k4", (16 * 1249, 16 * 1259, 16 * 1277, 16 * 1279, 16 * 1283),
         "k = 4: one eightfold step over a k = 1 base"),
    Slot("k5", (20000, 32 * 619, 32 * 631),
         "k = 5: one eightfold step over a k = 2 base; size meets the closed "
         "form (q + 3r - 7) / 7"),
    Slot("k0mod3", (20480, 28672, 18944, 20992),
         "k = 9 or 12: eightfold steps down to a tiny odd base (5, 7, 37, "
         "41) that the search solves"),
    Slot("k6-searched", (64 * 61, 64 * 67, 64 * 71),
         "k = 6 over the odd base 61, 67 or 71, whose exact search (1e3 "
         "nodes) runs inside construct"),
)

CONSTRUCT_TINY = (
    Slot("k1-prime-cli", (2018,), "tiny k = 1, prime r", cli=True),
    Slot("k1-prime", (2026,), "tiny k = 1, prime r"),
    Slot("k1-smooth", (770,), "tiny k = 1, smooth r"),
    Slot("k1-d49", (490,), "tiny k = 1 with the d = 49 refine search"),
    Slot("k2", (4036,), "tiny k = 2"),
    Slot("k2-half", (4052,), "tiny k = 2"),
    Slot("k4", (848,), "tiny k = 4"),
    Slot("k5", (800,), "tiny k = 5"),
    Slot("k0mod3", (320,), "tiny k = 6 over the base 5"),
    Slot("k6-searched", (832,), "tiny k = 6 over the base 13"),
)

# The core is fixed: exact_max costs differ by 1e3 between moduli, so a
# seeded pick would change the work, not the inputs.  The seed picks the
# light moduli (each under 0.1 s) and the order.
CERTIFY_LADDER = (
    Slot("witness-cli", (146,),
         "witness phase 0.8 of 0.9 s (proof 6e3 nodes); run as `magset "
         "search --q 146 --json` with a fresh MAGSET_CACHE file", cli=True),
    Slot("proof-101", (101,), "prime; proof 3.9e4 nodes, witness 0.15 s"),
    Slot("proof-149", (149,), "prime; proof 1.7e4 nodes"),
    Slot("proof-124", (124,), "4 * 31; proof 1.5e4 nodes"),
    Slot("proof-133", (133,), "7 * 19; proof 9e3 nodes"),
    Slot("proof-89", (89,), "prime; proof 1e4 nodes"),
    Slot("proof-79", (79,), "prime; proof 7e3 nodes"),
)
CERTIFY_LIGHT = ((62, 65, 88, 140),
                 (61, 64, 67, 68, 70, 71, 73, 74, 76, 77, 80, 83, 85, 86,
                  91, 92, 94, 95, 97, 100, 110, 115, 119, 130, 145))
CERTIFY_TINY = (
    Slot("tiny-a", (61,), "tiny prime modulus"),
    Slot("tiny-cli", (62,), "tiny even modulus via the CLI", cli=True),
)
CERTIFY_TINY_LIGHT = ((64, 65), ())


@dataclass(frozen=True)
class CodesSize:
    long_q: tuple
    short_q: tuple
    words: int
    trials: int
    corrupted: int
    messages: int = 16


CODES_FULL = CodesSize(
    # |B| = (p - 1) / 2, about 2.5e4 symbols.
    long_q=tuple(2 * p for p in PRIMES_5E4),
    # |B| = 16 for every pick.
    short_q=(68, 70, 74, 112),
    words=252, trials=20000, corrupted=8)
CODES_TINY = CodesSize(long_q=(2018,), short_q=(20,), words=40, trials=200,
                       corrupted=4, messages=4)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"magset-bench:{workload}:{seed}")


def _ladder(slots, seed: int, rng: random.Random) -> list:
    if seed == 0:
        return [(s, s.pool[0]) for s in slots]
    picked = [(s, rng.choice(s.pool)) for s in slots]
    rng.shuffle(picked)
    return picked


def json_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_json(report) -> str:
    """The exact text `magset construct --q Q --json` prints."""
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def run_cli(lib, argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.main(argv)
    return code, buf.getvalue()


class Timer:
    """Times each library call of a pass, and the checks made inside it.

    ``ops`` maps a call's label to its wall time; ``excluded`` is the
    time spent checking outputs inside the pass, which is not program
    time.
    """

    def __init__(self) -> None:
        self.ops: dict = {}
        self.excluded = 0.0

    @contextlib.contextmanager
    def op(self, label):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.ops[label] = time.perf_counter() - t0

    @contextlib.contextmanager
    def exclude(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - t0


@dataclass
class Checked:
    """Outcome of checking one pass."""

    ops: int = 0
    errors: list = field(default_factory=list)  # (op label, message)
    signature: list = field(default_factory=list)  # exact counts
    info: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=lambda: dict.fromkeys(
        ("clean", "corrected", "detected", "miscorrected"), 0))

    def fail(self, op: str, message: str) -> None:
        self.errors.append((op, message))

    @property
    def failed_ops(self) -> int:
        return len({op for op, _ in self.errors})


def _phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _check_set(lib, c: Checked, op: str, elements, q: int) -> None:
    verdict = lib.reference(elements, q, LAM)
    if not verdict.valid:
        c.fail(op, f"reference oracle rejects the set: {verdict.witness}")


def _check_construct(lib, c: Checked, op: str, q: int, d: dict,
                     pieces=None) -> None:
    """Checks shared by construct outputs (``d`` is the JSON form)."""
    elements, size, k, r = d["elements"], d["size"], d["k"], d["r"]
    _check_set(lib, c, op, elements, q)
    if size != len(elements) or not d["verified"]:
        c.fail(op, "size or verified flag does not match the elements")
    if size > (q - 1) // LAM:
        c.fail(op, f"size {size} exceeds the packing bound")
    want = frozen.CONSTRUCT.get(q)
    if want is not None:
        if size < want[0]:
            c.fail(op, f"size {size} < frozen {want[0]}")
        if want[1] and (not d["tight"] or size != want[0]):
            c.fail(op, f"frozen tight size {want[0]}, got {size} "
                       f"tight={d['tight']}")
    if k == 2 and size != r - 1:
        c.fail(op, f"k = 2 size {size} != r - 1 = {r - 1}")
    if k >= 2 and k % 3 == 2 and size != (q + 3 * r - 7) // 7:
        c.fail(op, f"k = 2 (mod 3) size {size} != (q + 3r - 7) / 7")
    # A refine-eligible piece left uncertified means its search was cut
    # off by the budget.  (Without the cap, the frozen tight flags guard.)
    cap = getattr(lib.mods["constructions"], "REFINE_VERTEX_CAP", 0)
    for p in pieces or ():
        if k == 1 and p.d > 1 and 2 * _phi(p.d) <= cap and not p.certified:
            c.fail(op, f"refine search for d = {p.d} did not finish")


class ConstructWorkload:
    name = "construct"
    min_passes = 5
    setup_reps = 15

    def __init__(self, tiny: bool) -> None:
        self.slots = CONSTRUCT_TINY if tiny else CONSTRUCT_LADDER

    def setup(self, lib, seed: int) -> list:
        return _ladder(self.slots, seed, _rng(self.name, seed))

    def describe(self, ladder) -> list:
        return [f"{q:>7}  {s.name:<10} {s.why}" for s, q in ladder]

    def run_pass(self, lib, ladder, timer) -> list:
        out = []
        for slot, q in ladder:
            with timer.op(q):
                if slot.cli:
                    result = run_cli(lib, ["construct", "--q", str(q),
                                           "--json"])
                else:
                    result = lib.construct(q, budget=lib.budget)
            out.append((q, result))
        return out

    def check(self, lib, ladder, out) -> Checked:
        c = Checked()
        for q, result in out:
            op = f"construct({q})"
            c.ops += 1
            if isinstance(result, tuple):
                code, text = result
                if code != 0:
                    c.fail(op, f"CLI exit code {code}")
                    continue
                pieces = None
            else:
                text, pieces = report_json(result), result.pieces
                if result.base is not None:
                    pieces = None  # eightfold pieces are exact by design
            d = json.loads(text)
            _check_construct(lib, c, op, q, d, pieces)
            c.signature.append((q, d["size"], d["tight"]))
            c.info[f"sha256 construct --json q={q}"] = json_sha256(text)
        return c


class CertifyWorkload:
    name = "certify"
    min_passes = 4
    setup_reps = 15

    def __init__(self, tiny: bool) -> None:
        self.slots = CERTIFY_TINY if tiny else CERTIFY_LADDER
        self.light = CERTIFY_TINY_LIGHT if tiny else CERTIFY_LIGHT

    def setup(self, lib, seed: int) -> dict:
        rng = _rng(self.name, seed)
        default, others = self.light
        if seed == 0:
            light = list(default)
        else:
            light = rng.sample(default + others, len(default))
        slots = list(self.slots) + [Slot("light", (q,), "light modulus "
                                         "(exact_max under 0.1 s)")
                                    for q in light]
        return {"ladder": _ladder(slots, seed, rng),
                "cache": os.path.join(lib.tmpdir, "magset-cache.jsonl")}

    def describe(self, inp) -> list:
        return [f"{q:>7}  {s.name:<13} {s.why}" for s, q in inp["ladder"]]

    def run_pass(self, lib, inp, timer) -> list:
        out = []
        for slot, q in inp["ladder"]:
            if slot.cli:
                if os.path.exists(inp["cache"]):
                    os.remove(inp["cache"])
                os.environ["MAGSET_CACHE"] = inp["cache"]
                with timer.op(("search", q)):
                    result = run_cli(lib, ["search", "--q", str(q), "--json"])
            else:
                with timer.op(("search", q)):
                    result = lib.exact_max(q, budget=lib.budget)
            out.append((q, "search", result))
            if q % 2 == 0:
                with timer.op(("construct", q)):
                    result = lib.construct(q, budget=lib.budget)
                out.append((q, "construct", result))
        return out

    def check(self, lib, inp, out) -> Checked:
        c = Checked()
        exact = {}
        for q, kind, result in out:
            c.ops += 1
            if kind == "search":
                op = f"exact_max({q})"
                if isinstance(result, tuple):
                    code, text = result
                    rec = json.loads(text) if code == 0 else None
                    if rec is None:
                        c.fail(op, f"CLI exit code {code}")
                        continue
                    size, witness = rec["max_size"], rec["witness"]
                    ok, nodes = rec["exact"], rec["nodes"]
                else:
                    size, witness = result.max_size, list(result.witness)
                    ok, nodes = result.exact, result.nodes_expanded
                exact[q] = size
                if not ok:
                    c.fail(op, "search was cut off by the node budget")
                if size != frozen.EXACT.get(q):
                    c.fail(op, f"max size {size} != frozen {frozen.EXACT.get(q)}")
                if len(witness) != size or witness != sorted(witness):
                    c.fail(op, "witness is not a sorted set of max_size residues")
                _check_set(lib, c, op, witness, q)
                c.signature.append((q, size, nodes, tuple(witness)))
                c.info[f"sha256 witness q={q}"] = json_sha256(json.dumps(witness))
            else:
                op = f"construct({q})"
                _check_construct(lib, c, op, q, result.to_json_dict(),
                                 result.pieces if result.base is None else None)
                if result.size > exact.get(q, result.size):
                    c.fail(op, "construct beats the certified maximum")
                if result.tight and result.size != exact.get(q):
                    c.fail(op, "tight construct size differs from exact_max")
                c.signature.append((q, result.size, result.tight))
                c.info[f"TIGHT/GAP q={q}"] = (
                    "TIGHT" if result.size == exact.get(q) else
                    f"GAP {result.size} < {exact.get(q)}")
        return c


@dataclass
class CodesInputs:
    q: int
    elements: list
    pivot: int
    messages: list
    words: list  # (kind, message index, errors, unknown syndrome)
    corrupted: list  # (sorted list, frozenset)
    short_q: int
    short_set: list
    trials: int
    sim_seed: int


CLEAN, SINGLE, UNKNOWN, DOUBLE = range(4)


class CodesWorkload:
    name = "codes"
    min_passes = 4
    setup_reps = 5

    def __init__(self, tiny: bool) -> None:
        self.size = CODES_TINY if tiny else CODES_FULL

    def setup(self, lib, seed: int) -> CodesInputs:
        rng = _rng(self.name, seed)
        size = self.size
        pick = (lambda pool: pool[0]) if seed == 0 else rng.choice
        q = pick(size.long_q)
        elements = sorted(lib.construct(q, budget=lib.budget).elements)
        short_q = pick(size.short_q)
        short_set = sorted(lib.construct(short_q, budget=lib.budget).elements)
        m = len(elements)
        units = [i for i, b in enumerate(elements) if math.gcd(b, q) == 1]
        table = {e * b % q for b in elements for e in range(1, LAM + 1)}
        missing = [s for s in range(1, q) if s not in table]
        if not units or not missing:
            raise ValueError(f"q={q}: needs a unit element and a syndrome "
                             "outside the table")
        messages = [[rng.randrange(q) for _ in range(m - 1)]
                    for _ in range(size.messages)]
        kinds = [CLEAN, SINGLE, UNKNOWN, DOUBLE] * (size.words // 4)
        rng.shuffle(kinds)
        words = []
        for kind in kinds:
            msg = rng.randrange(size.messages)
            if kind == CLEAN:
                words.append((kind, msg, (), None))
            elif kind == SINGLE:
                words.append((kind, msg, ((rng.randrange(m),
                                           rng.randint(1, LAM)),), None))
            elif kind == DOUBLE:
                i, j = rng.sample(range(m), 2)
                words.append((kind, msg, ((i, rng.randint(1, LAM)),
                                          (j, rng.randint(1, LAM))), None))
            else:
                j = rng.choice(units)
                s = rng.choice(missing)
                mag = s * pow(elements[j], -1, q) % q
                words.append((kind, msg, ((j, mag),), s))
        # Each corrupted copy adds z = 2x for an element x < q/2, so the
        # sweep stops near z; the positions are stratified over the set.
        corrupted = []
        n = size.corrupted
        for i in range(n):
            f = (i + rng.random()) / n
            k = min(bisect.bisect_left(elements, f * q / 2), m - 1)
            while 2 * elements[k] >= q:
                k -= 1
            bad = sorted(elements + [2 * elements[k]])
            corrupted.append((bad, frozenset(bad)))
        return CodesInputs(q=q, elements=elements, pivot=units[0],
                           messages=messages, words=words, corrupted=corrupted,
                           short_q=short_q, short_set=short_set,
                           trials=size.trials, sim_seed=rng.randrange(10**6))

    def describe(self, inp: CodesInputs) -> list:
        return [f"long code: q = {inp.q}, |B| = {len(inp.elements)}, "
                f"{len(inp.words)} words per pass (clean, single, unknown "
                "syndrome, double error in equal shares)",
                f"short code: q = {inp.short_q}, |B| = {len(inp.short_set)}, "
                f"{inp.trials} simulate trials per pass via `magset simulate`",
                f"verifier rejections: {len(inp.corrupted)} corrupted copies "
                "of the long set"]

    def run_pass(self, lib, inp: CodesInputs, timer) -> dict:
        q = inp.q
        unknown_error = lib.UnknownSyndromeError
        with timer.op("make_code"):
            code = lib.make_code(inp.elements, q)
        outcomes = {"clean": 0, "corrected": 0, "detected": 0,
                    "miscorrected": 0}
        errors = []
        for n, (kind, msg, errs, syndrome) in enumerate(inp.words):
            message = inp.messages[msg]
            with timer.op(("encode", n)):
                sent = lib.encode(code, message)
            received = list(sent)
            for pos, mag in errs:
                received[pos] = (received[pos] + mag) % q
            decoded = fix = raised = None
            with timer.op(("decode", n)):
                try:
                    decoded, fix = lib.decode(code, received)
                except unknown_error as exc:
                    raised = exc
            with timer.exclude():
                if raised is not None:
                    outcomes["detected"] += 1
                elif decoded != sent:
                    outcomes["miscorrected"] += 1
                else:
                    outcomes["clean" if fix is None else "corrected"] += 1
                problem = self._check_word(inp, message, sent, kind, errs,
                                           syndrome, decoded, fix, raised)
                if problem:
                    errors.append((f"word {n}", problem))
        verdicts = []
        for n, (bad, _) in enumerate(inp.corrupted):
            with timer.op(("verify", n)):
                verdicts.append(lib.is_b1_set(bad, q))
        with timer.op("simulate"):
            sim = run_cli(lib, ["simulate", "--q", str(inp.short_q), "--set",
                                ",".join(map(str, inp.short_set)), "--trials",
                                str(inp.trials), "--seed", str(inp.sim_seed)])
        return {"code": code, "outcomes": outcomes, "errors": errors,
                "verdicts": verdicts, "sim": sim}

    @staticmethod
    def _check_word(inp, message, sent, kind, errs, syndrome, decoded, fix,
                    raised):
        q, b = inp.q, inp.elements
        if sum(map(operator.mul, sent, b)) % q != 0:
            return "encode returned a non-codeword"
        if sent[:inp.pivot] + sent[inp.pivot + 1:] != tuple(message):
            return "encode is not systematic outside the pivot"
        if kind == CLEAN and (decoded != sent or fix is not None):
            return "clean word was altered"
        if kind == SINGLE and (decoded != sent or fix != errs[0]):
            return f"single error {errs[0]} decoded as {fix}"
        if kind == UNKNOWN and (raised is None or raised.syndrome != syndrome):
            return f"syndrome {syndrome} outside the table was not detected"
        if decoded is not None and sum(map(operator.mul, decoded, b)) % q:
            return "decode returned a non-codeword"
        return None

    def check(self, lib, inp: CodesInputs, out: dict) -> Checked:
        c = Checked()
        q = inp.q
        c.ops += 1
        if out["code"].elements != tuple(inp.elements) or out["code"].q != q:
            c.fail("make_code", "parity row differs from the valid set")
        c.ops += len(inp.words)
        for op, message in out["errors"]:
            c.fail(op, message)
        for n, (verdict, (bad, members)) in enumerate(zip(out["verdicts"],
                                                          inp.corrupted)):
            op = f"is_b1_set(corrupted {n})"
            c.ops += 1
            w = verdict.witness
            if verdict.valid or w is None:
                c.fail(op, "corrupted set accepted")
            elif len(w) == 2:
                if w[1] not in members or w[0] * w[1] % q:
                    c.fail(op, f"bad witness {w}")
            elif (w[1] not in members or w[3] not in members
                  or (w[0], w[1]) == (w[2], w[3])
                  or w[0] * w[1] % q != w[2] * w[3] % q
                  or not all(1 <= e <= LAM for e in (w[0], w[2]))):
                c.fail(op, f"bad witness {w}")
            c.signature.append(w)
        c.ops += 1
        code, text = out["sim"]
        stats = json.loads(text) if code == 0 else None
        want = {"trials": inp.trials, "corrected": inp.trials, "detected": 0,
                "miscorrected": 0, "seed": inp.sim_seed}
        if stats != want:
            c.fail("simulate", f"stats {stats} != {want}")
        frozen_stats = frozen.SIMULATE.get((inp.short_q, inp.trials,
                                            inp.sim_seed))
        if frozen_stats is not None and stats != frozen_stats:
            c.fail("simulate", f"stats {stats} != frozen {frozen_stats}")
        c.outcomes.update(out["outcomes"])
        c.signature.append(tuple(sorted(c.outcomes.items())))
        c.signature.append(text)
        return c


WORKLOADS = {w.name: w for w in (ConstructWorkload, CertifyWorkload,
                                 CodesWorkload)}
