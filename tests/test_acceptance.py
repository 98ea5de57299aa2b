"""Acceptance gate: one test per shipping criterion.

Each test prints exactly one summary line (through the capture bypass,
so it is visible in any pytest run) and then asserts.  Criterion 5
checks the closed-form pattern sums against the exact maximum; it once
failed at r = 49 (pattern sum 18, true maximum 19) until that pattern
branch was corrected -- see README.md, "Known limitation".  Never mark
it xfail: a red result there is a real pattern gap.
"""

import itertools
import math
import random
import time

import pytest

from golden_data import (
    GOLDEN_SETS,
    GOLDEN_SIZES,
    HONEST_73,
    TABLE_CIRCULANT,
    TABLE_GRID,
)
from residue_classes import divisor_classes, valuation_classes
from magset.cli import _table_rows
from magset.codec import decode, encode, make_code, simulate_channel
from magset.constructions import (
    build_four_times_odd,
    build_twice_odd,
    construct,
)
from magset.numtheory import mult_order, mult_order_naive
from magset.residues import Instance
from magset.search import exact_max
from magset.verifier import is_b1_set, is_b1_set_reference


def announce(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {number} ({name}): {status} — {detail}")


def in_scope_moduli(limit: int, min_k: int = 0):
    """All q = 2^k * r <= limit with gcd(r, 6) = 1 and k >= min_k."""
    out = []
    for q in range(1, limit + 1):
        k = (q & -q).bit_length() - 1
        if k >= min_k and math.gcd(q >> k, 6) == 1:
            out.append(q)
    return out


def test_criterion_1_golden_sets_verify(capsys):
    t0 = time.perf_counter()
    failures = []
    for q, elements in GOLDEN_SETS.items():
        if not is_b1_set(elements, q).valid:
            failures.append(f"example@{q}")
    for p, *_rest, witness in TABLE_CIRCULANT + TABLE_GRID:
        if not is_b1_set(witness, 2 * p).valid:
            failures.append(f"table@{2 * p}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    announce(capsys, 1, "golden sets verify", ok,
             f"{len(GOLDEN_SETS) + len(TABLE_CIRCULANT) + len(TABLE_GRID)} "
             f"sets valid, {elapsed:.2f}s" if ok else
             f"failures: {failures}, {elapsed:.2f}s")
    assert ok, failures


def test_criterion_2_exact_construction_sizes(capsys):
    t0 = time.perf_counter()
    failures = []
    for q, size in GOLDEN_SIZES.items():
        got = construct(q).size
        if got != size:
            failures.append(f"q={q}: {got} != {size}")
    count = len(GOLDEN_SIZES)
    for r in range(1, 201, 2):
        if math.gcd(r, 6) != 1:
            continue
        got = build_four_times_odd(r).size
        if got != r - 1:
            failures.append(f"4r, r={r}: {got} != {r - 1}")
        count += 1
    for k in (2, 5, 8, 11):
        for r in (1, 5, 7, 11, 13, 17, 19, 23, 25):
            q = 2**k * r
            expected = (q + 3 * r - 7) // 7
            got = construct(q).size
            if got != expected:
                failures.append(f"closed form q={q}: {got} != {expected}")
            count += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    announce(capsys, 2, "exact construction sizes", ok,
             f"{count} moduli exact, {elapsed:.2f}s" if ok else
             f"failures: {failures[:4]}, {elapsed:.2f}s")
    assert ok, failures


def test_criterion_3_table_reproduction(capsys):
    t0 = time.perf_counter()
    rows_a, rows_b = _table_rows(100, oracle=False)
    failures = []

    got_a = {int(row[0]): row for row in rows_a}
    for p, n, m, kp, rp, size, exact, _wit in TABLE_CIRCULANT:
        want = [str(p), str(n), str(m),
                "-" if kp is None else str(kp),
                "-" if rp is None else str(rp),
                str(size) if exact else f">={size}"]
        if p not in got_a or got_a[p][:6] != want:
            failures.append(f"p={p}: {got_a.get(p, ['missing'])[:6]} != {want}")

    got_b = {int(row[0]): row for row in rows_b}
    for p, n, t, s, n_cosets, size, exact, _wit in TABLE_GRID:
        if p == 73:
            # Fixture row is deliberately non-canonical (its s fails the
            # defining congruence, its witness is sub-optimal); the honest
            # output must show s=8 and size >= 28.
            row = got_b.get(p)
            if row is None or row[3] != str(HONEST_73["s"]) or \
                    not row[5].startswith(">=") or \
                    int(row[5][2:]) < HONEST_73["min_size"]:
                failures.append(f"p=73 honest row mismatch: {row}")
            continue
        want = [str(p), str(n), str(t), str(s), str(n_cosets),
                str(size) if exact else f">={size}"]
        if p not in got_b or got_b[p][:6] != want:
            failures.append(f"p={p}: {got_b.get(p, ['missing'])[:6]} != {want}")

    if len(rows_a) != len(TABLE_CIRCULANT) or len(rows_b) != len(TABLE_GRID):
        failures.append("row count mismatch")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    announce(capsys, 3, "table reproduction", ok,
             f"{len(rows_a) + len(rows_b)} rows match (>= markers included), "
             f"{elapsed:.2f}s" if ok else f"failures: {failures}, {elapsed:.2f}s")
    assert ok, failures


def test_criterion_4_oracle_tightness_to_106(capsys):
    t0 = time.perf_counter()
    failures = []
    moduli = in_scope_moduli(106, min_k=1)
    for q in moduli:
        built = construct(q).size
        found = exact_max(q)
        assert found.exact
        if built != found.max_size:
            failures.append(f"q={q}: construct {built} != search {found.max_size}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    announce(capsys, 4, "construction matches exhaustive search, q <= 106", ok,
             f"{len(moduli)} moduli agree, {elapsed:.1f}s" if ok else
             f"failures: {failures}, {elapsed:.1f}s")
    assert ok, failures


def test_criterion_5_pattern_sum_tightness_probe(capsys):
    # The pattern sums must equal the exact maximum for every q = 2r,
    # r <= 53.  This failed at r = 49 (pattern sum 18, true maximum 19)
    # until the domain-wall branch replaced that pattern; larger r can
    # still show gaps (first at r = 59), see README.md, "Known
    # limitation".  The probe lines for larger r print before the
    # assertion either way.
    t0 = time.perf_counter()
    probes = []
    for r in (55, 65, 77, 85, 91, 95):
        pattern = build_twice_odd(r, refine=False).size
        found = exact_max(2 * r)
        assert found.exact
        probes.append((r, pattern, found.max_size))
    with capsys.disabled():
        print()
        for r, pattern, exact in probes:
            tag = "TIGHT" if pattern == exact else "GAP"
            print(f"  probe r={r}: pattern sum {pattern}, "
                  f"exact maximum {exact} -> {tag}")

    gaps = []
    checked = 0
    for r in range(1, 54, 2):
        if math.gcd(r, 6) != 1:
            continue
        checked += 1
        pattern = build_twice_odd(r, refine=False).size
        found = exact_max(2 * r)
        assert found.exact
        if pattern != found.max_size:
            gaps.append((r, pattern, found.max_size))
    elapsed = time.perf_counter() - t0
    ok = not gaps and elapsed < 1800.0
    announce(capsys, 5, "pattern sums tight for r <= 53", ok,
             f"{checked} moduli tight, {elapsed:.1f}s" if ok else
             f"gap at {[(f'r={r}: pattern {p} < exact {e}') for r, p, e in gaps]}"
             f" ({checked} checked, {elapsed:.1f}s) — known limitation, "
             f"see README")
    assert ok, gaps


def test_criterion_6_property_suites(capsys):
    t0 = time.perf_counter()
    failures = []

    rng = random.Random(0xACCE97)
    for _ in range(100_000):
        q = rng.randrange(2, 150)
        lam = rng.randrange(1, 7)
        size = rng.randrange(0, min(q - 1, 12) + 1)
        elements = rng.sample(range(1, q), size) if size else []
        if is_b1_set(elements, q, lam).valid != \
                is_b1_set_reference(elements, q, lam).valid:
            failures.append(f"verifier split at q={q}, lam={lam}")
            break

    for ell in (2, 3, 5, 7):
        for d in range(1, 5001):
            if math.gcd(ell, d) != 1:
                continue
            if mult_order(ell, d) != mult_order_naive(ell, d):
                failures.append(f"order mismatch l={ell}, d={d}")
                break

    for r in range(1, 1001, 2):
        q = 2 * r
        for d, _, (u0, u1) in divisor_classes(q):
            if d == 1:
                continue
            if {2 * x % q for x in u0} != set(u1) or \
                    {2 * x % q for x in u1} != set(u1):
                failures.append(f"doubling-map bijection fails q={q}, d={d}")

    for q in in_scope_moduli(10_000, min_k=2):
        inst = Instance.from_q(q)
        parts = valuation_classes(q, 3 if inst.k >= 3 else 2)
        union = set()
        total = 0
        for part in parts:
            total += len(part)
            union |= part
        if union != set(range(1, q)) or total != q - 1:
            failures.append(f"valuation partition fails q={q}")

    elapsed = time.perf_counter() - t0
    ok = not failures
    announce(capsys, 6, "property suites", ok,
             f"verifier agreement 1e5, orders to 5000, doubling bijections "
             f"to q=2000, partitions to q=1e4; {elapsed:.1f}s" if ok else
             f"failures: {failures[:4]}, {elapsed:.1f}s")
    assert ok, failures


def test_criterion_7_codec_roundtrip_and_channel(capsys):
    t0 = time.perf_counter()
    failures = []
    total = 0
    for q in (20, 40, 190):
        code = make_code(GOLDEN_SETS.get(q, construct(q).elements), q)
        m = code.length
        sample = (0, 1, q // 3, q // 2, q - 1)
        messages = itertools.islice(
            itertools.product(sample, repeat=m - 1), 150)
        for message in messages:
            sent = encode(code, message)
            for position in range(m):
                for magnitude in range(1, 5):
                    received = list(sent)
                    received[position] = (received[position] + magnitude) % q
                    word, error = decode(code, received)
                    total += 1
                    if word != sent or error != (position, magnitude):
                        failures.append(f"q={q} msg={message} "
                                        f"pos={position} mag={magnitude}")
        stats = simulate_channel(code, 10_000, error_rate=1.0, seed=97)
        again = simulate_channel(code, 10_000, error_rate=1.0, seed=97)
        if stats.corrected != 10_000:
            failures.append(f"q={q}: {stats.corrected}/10000 corrected")
        if stats != again:
            failures.append(f"q={q}: simulation not deterministic")
    elapsed = time.perf_counter() - t0
    ok = not failures
    announce(capsys, 7, "codec round-trip and channel", ok,
             f"{total} single-error decodes exact, 3x10^4 channel trials "
             f"all corrected, {elapsed:.1f}s" if ok else
             f"failures: {failures[:4]}, {elapsed:.1f}s")
    assert ok, failures
