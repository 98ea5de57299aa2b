"""Validity checking: byte-table sweep vs reference map, witnesses, syndromes."""

import bisect
import math
import random
import re

import pytest

from golden_data import GOLDEN_SETS
from magset import verifier
from magset.cli import main
from magset.codec import make_code
from magset.constructions import construct
from magset.verifier import (
    _BLOCK,
    _DENSE,
    format_witness,
    is_b1_set,
    is_b1_set_reference,
)


def test_golden_sets_valid():
    for q, elements in GOLDEN_SETS.items():
        verdict = is_b1_set(elements, q)
        assert verdict.valid, (q, verdict.witness)
        assert verdict.witness is None


def test_simple_invalid_with_collision_witness():
    verdict = is_b1_set({1, 2}, 9)
    assert not verdict.valid
    e1, b1, e2, b2 = verdict.witness
    assert e1 * b1 % 9 == e2 * b2 % 9
    assert format_witness(verdict.witness, 9) == "2*1 == 1*2 (mod 9)"


def test_zero_product_witness():
    verdict = is_b1_set({5}, 20)
    assert not verdict.valid
    assert verdict.witness == (4, 5)
    assert format_witness(verdict.witness, 20) == "4*5 == 0 (mod 20)"
    assert format_witness(None, 20) == "no collision"


def test_empty_set_is_valid():
    assert is_b1_set((), 7).valid


def test_input_validation():
    with pytest.raises(ValueError):
        is_b1_set({0}, 10)  # zero residue
    with pytest.raises(ValueError):
        is_b1_set({10}, 10)  # out of range
    with pytest.raises(ValueError):
        is_b1_set([1, 1], 10)  # duplicate
    with pytest.raises(ValueError):
        is_b1_set({1}, 0)


def test_scaling_by_unit_preserves_validity():
    q = 44
    base = GOLDEN_SETS[q]
    for u in (3, 5, 7, 9, 13):
        scaled = {u * b % q for b in base}
        assert is_b1_set(scaled, q).valid, u


def test_dual_implementations_agree_randomized():
    rng = random.Random(20260819)
    for _ in range(3000):
        q = rng.randrange(2, 120)
        lam = rng.randrange(1, 6)
        size = rng.randrange(0, max(1, min(q - 1, 10)) + 1)
        elements = rng.sample(range(1, q), min(size, q - 1))
        a = is_b1_set(elements, q, lam)
        b = is_b1_set_reference(elements, q, lam)
        assert a.valid == b.valid, (q, lam, elements)
        if not a.valid:
            # Both witnesses must be genuine collisions/zeros.
            for wit in (a.witness, b.witness):
                if len(wit) == 2:
                    e, bb = wit
                    assert e * bb % q == 0
                else:
                    e1, b1, e2, b2 = wit
                    assert e1 * b1 % q == e2 * b2 % q
                    assert (e1, b1) != (e2, b2)


def test_syndrome_table_contents():
    code = make_code({1, 9, 13, 17}, 20)
    assert len(code.table) == 16
    assert code.table[7] == (3, 1)
    assert code.table.get(0) is None
    for syndrome, (e, i) in code.table.items():
        assert e * code.elements[i] % 20 == syndrome


def test_syndrome_table_rejects_invalid():
    with pytest.raises(ValueError):
        make_code({1, 2}, 9)


def test_verdicts_equal_reference_randomized():
    # Same verdict and the same witness: the first failing (e, b) in
    # ascending-b, ascending-e order, against the first product it repeats.
    rng = random.Random(20261018)
    valid = 0
    for _ in range(4000):
        q = rng.randrange(2, 3000)
        lam = rng.randrange(1, 7)
        size = rng.randrange(0, min(q - 1, 60) + 1)
        elements = rng.sample(range(1, q), size)
        verdict = is_b1_set(elements, q, lam)
        assert verdict == is_b1_set_reference(elements, q, lam), (
            q, lam, elements)
        valid += verdict.valid
    assert 0 < valid < 4000


def test_large_set_and_one_added_double():
    q = 2 * 100003
    report = construct(q)
    elements = sorted(report.elements)
    assert is_b1_set(elements, q).valid
    assert len(make_code(elements, q).table) == 4 * len(elements)
    x = next(b for b in elements if 2 * b % q not in report.elements)
    spoiled = [*elements, 2 * x % q]
    verdict = is_b1_set(spoiled, q)
    assert not verdict.valid
    assert verdict == is_b1_set_reference(spoiled, q)
    message = f"not a valid set: {format_witness(verdict.witness, q)}"
    with pytest.raises(ValueError) as err:
        make_code(spoiled, q)
    assert str(err.value) == message


def test_syndrome_table_empty_and_overfull_sets():
    assert make_code((), 7).table == {}
    rng = random.Random(7)
    for q in range(2, 40):
        for lam in range(1, 6):
            for size in range(-(-q // lam), q):  # every size with lam*size >= q
                elements = rng.sample(range(1, q), size)
                with pytest.raises(ValueError, match="not a valid set"):
                    make_code(elements, q, lam)


def test_rejection_witnesses_across_blocks():
    # One added double z = 2x of the q = 100042 set, first failing at z:
    # in the first block, on either side of the first block boundary, in
    # the middle and in the last block; and one zero product, 2*(q/2).
    q = 100042
    elements = sorted(construct(q).elements)
    members = set(elements)
    doubles = sorted((bisect.bisect_left(elements, 2 * x), 2 * x)
                     for x in elements if 2 * x < q and 2 * x not in members)
    targets = (10, _BLOCK - 1, _BLOCK + 1, len(elements) // 2,
               len(elements) - 3)
    added = [min(doubles, key=lambda d: abs(d[0] - t))[1] for t in targets]
    for extra in [*added, q // 2]:
        spoiled = [*elements, extra]
        verdict = is_b1_set(spoiled, q)
        assert not verdict.valid
        assert verdict == is_b1_set_reference(spoiled, q), extra
        message = f"not a valid set: {format_witness(verdict.witness, q)}"
        with pytest.raises(ValueError) as err:
            make_code(spoiled, q)
        assert str(err.value) == message
    assert is_b1_set([*elements, q // 2], q).witness == (2, q // 2)


def test_later_block_witnesses_equal_reference_randomized():
    # Sets of more than one block, spoiled by residues past the first
    # block, so that the witness's partner is mostly found in an earlier
    # block by solving e1*x == s (mod q); even q give e1 with several
    # roots.  Every verdict, witness included, equals the reference's.
    rng = random.Random(20261019)
    partners_before = 0
    for q in (4 * 1031, 2 * 2503, 2 * 4099):
        elements = sorted(construct(q).elements)
        assert len(elements) > _BLOCK
        members = set(elements)
        for _ in range(60):
            lam = rng.randrange(1, 5)
            extra = rng.sample([x for x in range(elements[_BLOCK], q)
                                if x not in members], rng.randrange(1, 4))
            spoiled = sorted(elements + extra)
            verdict = is_b1_set(spoiled, q, lam)
            assert verdict == is_b1_set_reference(spoiled, q, lam), (
                q, lam, extra)
            if verdict.witness is not None and len(verdict.witness) == 4:
                _, b1, _, b2 = verdict.witness
                start = spoiled.index(b2) // _BLOCK * _BLOCK
                partners_before += spoiled.index(b1) < start
    assert partners_before >= 100


def test_small_blocks_give_reference_witnesses(monkeypatch):
    # Blocks of a few elements put witnesses and their partners in every
    # relative position: same block, earlier block, first or later block.
    rng = random.Random(20261019)
    for block in (1, 2, 3, 5):
        monkeypatch.setattr(verifier, "_BLOCK", block)
        for _ in range(500):
            q = rng.randrange(2, 400)
            lam = rng.randrange(1, 6)
            elements = rng.sample(range(1, q), rng.randrange(0, min(q - 1, 30) + 1))
            assert is_b1_set(elements, q, lam) == is_b1_set_reference(
                elements, q, lam), (block, q, lam, elements)


@pytest.mark.parametrize("entry", [1.5, "3", None])
def test_non_integer_entries_are_refused(entry):
    message = re.escape(f"element {entry!r} is not an integer")
    for check in (is_b1_set, is_b1_set_reference, make_code):
        with pytest.raises(TypeError, match=message):
            check([1, entry], 10)


def test_bool_and_numpy_entries_count_as_integers():
    assert is_b1_set([True, 2], 9) == is_b1_set([1, 2], 9)
    assert is_b1_set_reference([True], 10).valid
    np = pytest.importorskip("numpy")
    row = np.array(sorted(GOLDEN_SETS[20]), dtype=np.int64)
    assert is_b1_set(row, 20).valid and is_b1_set_reference(row, 20).valid
    assert make_code(row, 20) == make_code(GOLDEN_SETS[20], 20)
    assert make_code(row, 20).length == len(GOLDEN_SETS[20])


def _greedy_valid_set(q, lam, rng):
    """A maximal valid set: residues in random order, each kept when its
    lam products are distinct, nonzero and unused."""
    used = {0}
    kept = []
    for x in rng.sample(range(1, q), q - 1):
        products = {e * x % q for e in range(1, lam + 1)}
        if len(products) == lam and used.isdisjoint(products):
            used |= products
            kept.append(x)
    return sorted(kept)


def _spoiled(elements, q, lam):
    """Copies of a set with one residue added at its first, middle
    and last element: 2x; y with e2*y == e1*x for e1 != e2, or with
    e*y == e*x for y != x, so that the images of x and y meet from
    different ranges j; and a z with e*z == 0."""
    members = set(elements)
    for x in (elements[0], elements[len(elements) // 2], elements[-1]):
        extras = {2 * x % q}
        for e1 in range(1, lam + 1):
            for e2 in range(1, lam + 1):
                extras.update(verifier._solutions(e2, e1 * x % q, q))
        for y in sorted(extras - members - {0}):
            yield sorted([*elements, y])
    zeros = sorted({m * q // g for e in range(2, lam + 1)
                    if (g := math.gcd(e, q)) > 1 for m in range(1, g)} - members)
    for z in zeros[:1] + zeros[len(zeros) // 2:][:1] + zeros[-1:]:
        yield sorted([*elements, z])


@pytest.mark.parametrize("q", [3001, 2 * 1499, 4 * 751, 3 * 1009, 12 * 251])
def test_dense_sets_equal_reference(q, monkeypatch):
    # Prime q, and q divisible by 2, 3, 4 and 12, where the ranges j of
    # one e share residue classes mod e and so take several lanes.  The
    # sets are near-maximal (construct's where it covers q, greedy ones
    # for every lam), their samples one element either side of the
    # crossover, and copies spoiled at the first, middle and last
    # element.  The lanes run exactly on the dense sets, and both they
    # and the full Verdict agree with the reference.
    lanes = []
    lanes_disjoint = verifier._lanes_disjoint

    def spy(ints, q, lam):
        lanes.append(lanes_disjoint(ints, q, lam))
        return lanes[-1]

    monkeypatch.setattr(verifier, "_lanes_disjoint", spy)
    rng = random.Random(q)
    crossover = -(-q // _DENSE)
    dense = accepted = 0
    for lam in range(1, 7):
        sources = [_greedy_valid_set(q, lam, rng)]
        if q % 2 == 0 and q % 3:
            sources.append(sorted(construct(q).elements))
        for elements in sources:
            cases = [elements, sorted(rng.sample(elements, crossover)),
                     sorted(rng.sample(elements, crossover - 1)),
                     *_spoiled(elements, q, lam)]
            for case in cases:
                del lanes[:]
                verdict = is_b1_set(case, q, lam)
                assert verdict == is_b1_set_reference(case, q, lam), (
                    q, lam, case)
                runs = q <= _DENSE * len(case)
                assert lanes == ([verdict.valid] if runs else []), (q, lam)
                dense += runs
                accepted += runs and verdict.valid
    assert accepted >= 12 and dense - accepted >= 150


def test_sparse_sets_never_reach_the_lanes(monkeypatch, capsys):
    # At q = 10**12 a q-byte lane cannot be allocated: the block loop
    # alone must decide, in the library and through the CLI.
    def refuse(ints, q, lam):
        raise AssertionError(f"lanes ran on {len(ints)} elements mod {q}")

    monkeypatch.setattr(verifier, "_lanes_disjoint", refuse)
    q = 10**12
    reference = is_b1_set_reference([1, 2], q)
    assert reference == (False, (2, 1, 1, 2))
    assert is_b1_set([1, 2], q) == reference
    assert main(["verify", "--q", str(q), "--set", "1,2"]) == 1
    assert capsys.readouterr().out == (
        f"invalid: {format_witness(reference.witness, q)}\n")


@pytest.mark.parametrize("bad, message", [
    ([5, 1.5, 0], "element 1.5 is not an integer"),
    ([5, 0, 40, 5], "element 0 outside [1, 39]"),
    ([5, -3, 7, 9], "element -3 outside [1, 39]"),
    ([5, 7, 45, 9], "element 45 outside [1, 39]"),
    ([5, 7, 10**30], f"element {10**30} outside [1, 39]"),
    ([5, 7, 9, 7], "elements must be distinct"),
])
def test_dense_input_errors_keep_their_text_and_order(bad, message):
    # Type, then range, then distinct: the lanes refuse such input
    # unsorted and leave the message to _checked.
    elements = [*bad, 11, 13]
    assert 40 <= _DENSE * len(elements)
    error = TypeError if "integer" in message else ValueError
    for check in (is_b1_set, is_b1_set_reference):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check(elements, 40)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check(iter(elements), 40)
