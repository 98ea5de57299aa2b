"""Validity checking: byte-table sweep vs reference map, witnesses, syndromes."""

import bisect
import random
import re

import pytest

from golden_data import GOLDEN_SETS
from magset import verifier
from magset.codec import make_code
from magset.constructions import construct
from magset.verifier import (
    _BLOCK,
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
