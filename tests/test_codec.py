"""Linear codes from valid sets: encode, syndrome decode, channel model."""

import dataclasses
import itertools
import math
import random
import types

import pytest

import magset.codec
from golden_data import GOLDEN_SETS
from magset.codec import (
    NoUnitPivotError,
    UnknownSyndromeError,
    decode,
    encode,
    is_codeword,
    make_code,
    pivot_index,
    simulate_channel,
)
from magset.constructions import construct


@pytest.fixture(scope="module")
def code20():
    return make_code({1, 9, 13, 17}, 20)


def test_make_code_sorts_row_and_validates(code20):
    assert code20.elements == (1, 9, 13, 17)
    assert code20.length == 4
    with pytest.raises(ValueError):
        make_code({5}, 20)  # 4*5 == 0 mod 20: not a valid set
    with pytest.raises(ValueError):
        make_code({1, 2}, 9)


def test_code_hashes_and_prints_by_its_defining_fields(code20):
    # The syndrome table is derived from (q, lam, elements): it takes no
    # part in equality or hashing and is not printed.
    again = make_code([17, 13, 9, 1], 20)
    assert again == code20 and hash(again) == hash(code20)
    assert len({code20, again, make_code([1, 9, 13, 17], 20, lam=3)}) == 2
    assert repr(code20) == "LinearCode(q=20, lam=4, elements=(1, 9, 13, 17))"


def test_is_codeword(code20):
    assert is_codeword(code20, (2, 2, 0, 0))  # 2 + 18 = 20 = 0
    assert is_codeword(code20, (0, 0, 0, 0))
    assert not is_codeword(code20, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        is_codeword(code20, (1, 0, 0))  # length mismatch


def test_encode_example(code20):
    assert pivot_index(code20) == 0
    assert encode(code20, (2, 0, 0)) == (2, 2, 0, 0)
    assert encode(code20, (0, 0, 0)) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        encode(code20, (2, 0))  # wrong message length


def test_pivot_is_found_once_per_code(monkeypatch):
    # {5, 8, 9, 17, 33} is valid at q = 40 and its first unit is 9, at
    # index 2.  After the first encode, no call needs gcd again.
    code = make_code({5, 8, 9, 17, 33}, 40)
    first = encode(code, (1, 2, 3, 4))
    assert first == (1, 2, 4, 3, 4) and is_codeword(code, first)

    def no_gcd(*args):
        raise AssertionError("the pivot was searched again")

    monkeypatch.setattr(math, "gcd", no_gcd)
    assert encode(code, (1, 2, 3, 4)) == first
    assert pivot_index(code) == 2


def test_encode_needs_unit_pivot():
    # {4} is a valid set at q=20 (products 4,8,12,16) with no unit element:
    # the code exists and decodes, but nothing can be encoded.
    code = make_code({4}, 20)
    assert decode(code, (5,)) == ((5,), None)
    with pytest.raises(NoUnitPivotError):
        pivot_index(code)
    with pytest.raises(NoUnitPivotError):
        encode(code, ())


def test_decode_example(code20):
    word, error = decode(code20, (2, 5, 0, 0))  # syndrome 47 = 7 mod 20
    assert (word, error) == ((2, 2, 0, 0), (1, 3))
    assert code20.table[7] == (3, 1)
    assert decode(code20, (2, 2, 0, 0)) == ((2, 2, 0, 0), None)


@pytest.mark.parametrize("q", [*sorted(GOLDEN_SETS), 2 * 100003])
def test_table_maps_each_syndrome_to_magnitude_and_position(q):
    elements = GOLDEN_SETS[q] if q in GOLDEN_SETS else construct(q).elements
    code = make_code(elements, q)
    row, m = code.elements, code.length
    assert len(code.table) == code.lam * m
    for i, b in enumerate(row):
        for e in range(1, code.lam + 1):
            assert code.table[e * b % q] == (e, i)
    for i in (0, m // 2, m - 1):
        for e in range(1, code.lam + 1):
            received = [0] * m
            received[i] = e
            assert decode(code, received) == ((0,) * m, (i, e))


def test_decode_unknown_syndrome_is_detection(code20):
    received = (3, 3, 0, 0)  # syndrome 30 = 10: not a single-error syndrome
    with pytest.raises(UnknownSyndromeError) as info:
        decode(code20, received)
    assert info.value.syndrome == 10


def test_exhaustive_single_error_roundtrip(code20):
    q, m = 20, code20.length
    sample = (0, 1, 7, 13, 19)
    for message in itertools.product(sample, repeat=m - 1):
        sent = encode(code20, message)
        for position in range(m):
            for magnitude in range(1, 5):
                received = list(sent)
                received[position] = (received[position] + magnitude) % q
                word, error = decode(code20, received)
                assert word == sent
                assert error == (position, magnitude)


def test_double_errors_never_silently_accepted(code20):
    q, m = 20, code20.length
    sent = encode(code20, (2, 0, 0))
    for i, j in itertools.combinations(range(m), 2):
        for e1, e2 in itertools.product(range(1, 5), repeat=2):
            received = list(sent)
            received[i] = (received[i] + e1) % q
            received[j] = (received[j] + e2) % q
            try:
                word, _error = decode(code20, received)
            except UnknownSyndromeError:
                continue  # detected
            assert word != sent  # miscorrected, but never reported clean


def test_code_size_is_q_to_m_minus_1():
    for elements, q in (({1, 9}, 10), ({1, 9, 13, 17}, 20)):
        code = make_code(elements, q)
        m = code.length
        count = sum(
            1 for word in itertools.product(range(q), repeat=m)
            if is_codeword(code, word))
        assert count == q ** (m - 1)
        # Packing bound for single limited-magnitude errors.
        assert count * (m * code.lam + 1) <= q**m


class IntLike:
    """A numpy-style scalar: an integer value behind ``__int__``."""

    def __init__(self, value):
        self.value = value

    def __int__(self):
        return self.value


def _residues(word, q):
    return [int(v) % q for v in word]


def _reference_encode(code, message):
    """Systematic encode with the per-element formula throughout."""
    q, row = code.q, code.elements
    p = pivot_index(code)
    word = _residues(message, q)
    word.insert(p, 0)
    partial = sum(v * b for v, b in zip(word, row)) % q
    word[p] = -partial * pow(row[p], -1, q) % q
    return tuple(word)


def _reference_decode(code, received):
    q, row = code.q, code.elements
    y = _residues(received, q)
    syndrome = sum(v * b for v, b in zip(y, row)) % q
    if syndrome == 0:
        return tuple(y), None
    for j, b in enumerate(row):
        for e in range(1, code.lam + 1):
            if e * b % q == syndrome:
                y[j] = (y[j] - e) % q
                return tuple(y), (j, e)
    return syndrome  # detected


def _edge_entry(rng, q):
    """A coordinate of one of the kinds ``int(v) % q`` accepts."""
    v = rng.randrange(-3 * q, 3 * q)
    kind = rng.randrange(7)
    if kind == 0:
        return v
    if kind == 1:
        return rng.randrange(q)
    if kind == 2:
        return rng.random() < 0.5
    if kind == 3:
        return v + rng.choice((0.0, 0.25, 0.75, -0.5))
    if kind == 4:
        return str(v)
    if kind == 5:
        return IntLike(v)
    return rng.choice((-1, q, q - 1, 2 * q + 1, -q))


def _edge_words(rng, q, n):
    """Words of length n as tuples, lists and ranges."""
    words = [tuple(_edge_entry(rng, q) for _ in range(n)),
             [_edge_entry(rng, q) for _ in range(n)],
             [rng.randrange(q) for _ in range(n)],  # plain ints, in range
             tuple(rng.randrange(-q, 2 * q) for _ in range(n))]
    start = rng.randrange(-2 * q, 2 * q)
    words.append(range(start, start + n))
    words.append(range(start, start - 2 * n, -2))
    words.append([True] * n)
    return words


@pytest.mark.parametrize("q", [20, 44, 190])
def test_edge_inputs_match_per_element_formula(q):
    elements = GOLDEN_SETS[q]
    code = make_code(elements, q)
    m = code.length
    rng = random.Random(q)
    for _ in range(40):
        for message in _edge_words(rng, q, m - 1):
            sent = encode(code, message)
            assert sent == _reference_encode(code, message)
            assert all(type(v) is int for v in sent)
            assert is_codeword(code, sent)
        for word in _edge_words(rng, q, m):
            assert is_codeword(code, word) == (sum(
                v * b for v, b in zip(_residues(word, q), code.elements))
                % q == 0)
            want = _reference_decode(code, word)
            if isinstance(want, int):
                with pytest.raises(UnknownSyndromeError) as info:
                    decode(code, word)
                assert info.value.syndrome == want
            else:
                assert decode(code, word) == want


def test_edge_inputs_on_the_readme_code(code20):
    # the per-element formula gives 2,2,0,0 and (2,5,0,0) -> fix (1, 3)
    assert encode(code20, (22, -40, 20)) == (2, 2, 0, 0)
    assert encode(code20, ("2", 0.9, False)) == (2, 2, 0, 0)
    assert encode(code20, [IntLike(-18), True, -1]) == encode(code20,
                                                            (2, 1, 19))
    assert encode(code20, range(3)) == encode(code20, (0, 1, 2))
    assert decode(code20, (-18, 25, 40, "0")) == ((2, 2, 0, 0), (1, 3))
    assert decode(code20, range(2, 6)) == _reference_decode(code20,
                                                           (2, 3, 4, 5))
    assert is_codeword(code20, (22.5, -18, True * 20, -20))
    with pytest.raises(ValueError):
        encode(code20, ("two", 0, 0))
    with pytest.raises(TypeError):
        decode(code20, (None, 0, 0, 0))


def test_numpy_entries_match_per_element_formula():
    np = pytest.importorskip("numpy")
    q = 190
    code = make_code(GOLDEN_SETS[q], q)
    rng = np.random.default_rng(7)
    for dtype in (np.int64, np.int32, np.uint16, np.float64):
        message = rng.integers(-q, 3 * q, code.length - 1).astype(dtype)
        word = rng.integers(0, 3 * q, code.length).astype(dtype)
        assert encode(code, message) == _reference_encode(code, message)
        assert encode(code, list(message)) == _reference_encode(code, message)
        want = _reference_decode(code, word)
        if isinstance(want, int):
            with pytest.raises(UnknownSyndromeError):
                decode(code, word)
        else:
            assert decode(code, word) == want


def test_numpy_parity_row_is_stored_as_ints():
    np = pytest.importorskip("numpy")
    plain = make_code([1, 9, 13, 17], 20)
    code = make_code(np.array([1, 9, 13, 17], dtype=np.int64), 20)
    assert code.elements == plain.elements
    assert all(type(b) is int for b in code.elements)
    assert encode(code, [2, 0, 0]) == encode(plain, [2, 0, 0]) == (2, 2, 0, 0)
    assert decode(code, [2, 5, 0, 0]) == decode(plain, [2, 5, 0, 0])


@pytest.mark.parametrize("q", sorted(GOLDEN_SETS))
def test_simulate_corrects_every_trial(q):
    # one in-range error per word is always corrected, whatever the stream
    code = make_code(GOLDEN_SETS[q], q)
    for seed in (0, 1, 7, 12345):
        for rate in (0.0, 0.5, 1.0):
            stats = simulate_channel(code, 150, error_rate=rate, seed=seed)
            assert (stats.trials, stats.corrected, stats.detected,
                    stats.miscorrected, stats.seed) == (150, 150, 0, 0, seed)
            assert simulate_channel(code, 150, error_rate=rate,
                                    seed=seed) == stats


def test_simulate_deterministic_and_fully_correcting(code20):
    stats = simulate_channel(code20, 400, error_rate=1.0, seed=11)
    again = simulate_channel(code20, 400, error_rate=1.0, seed=11)
    other = simulate_channel(code20, 400, error_rate=1.0, seed=12)
    assert stats == again
    assert stats != other or stats.corrected == other.corrected == 400
    assert (stats.trials, stats.corrected, stats.detected,
            stats.miscorrected) == (400, 400, 0, 0)
    assert stats.to_json_dict() == {"trials": 400, "corrected": 400,
                                    "detected": 0, "miscorrected": 0,
                                    "seed": 11}


def test_simulate_error_rate_zero(code20):
    stats = simulate_channel(code20, 100, error_rate=0.0, seed=3)
    assert stats.corrected == 100 and stats.miscorrected == 0


def test_simulate_on_golden_sets():
    for q in (40, 44):
        code = make_code(GOLDEN_SETS[q], q)
        stats = simulate_channel(code, 300, error_rate=1.0, seed=5)
        assert stats.corrected == 300


def test_simulate_counts_detected_and_miscorrected_words(code20):
    # A valid set's code corrects every trial, so these counts need a
    # broken table: with no entry no syndrome is known, and every word is
    # detected; with each magnitude e read as e % 4 + 1, the right
    # position gets the wrong fix, and every word is miscorrected.
    empty = dataclasses.replace(code20, table={})
    shifted = dataclasses.replace(code20, table={
        s: (e % 4 + 1, pos) for s, (e, pos) in code20.table.items()})
    for code, counts in ((empty, (0, 200, 0)), (shifted, (0, 0, 200))):
        stats = simulate_channel(code, 200, error_rate=1.0, seed=4)
        assert (stats.corrected, stats.detected,
                stats.miscorrected) == counts
        assert stats.trials == 200


def test_simulate_validates_inputs(code20):
    with pytest.raises(ValueError):
        simulate_channel(code20, -1)
    with pytest.raises(ValueError):
        simulate_channel(code20, 10, error_rate=1.5)


class MisreadInt(int):
    """An int subclass whose ``int()`` is not its own value."""

    def __int__(self):
        return int.__int__(self) + 7


@pytest.fixture(scope="module")
def code10006():
    return make_code(construct(10006).elements, 10006)


def _planted_entries(q):
    entries = [True, -1, q, 2**64, 2**64 + 5, 3.7, "12", IntLike(-q - 1),
               MisreadInt(5), MisreadInt(q - 3)]
    try:
        import numpy as np
    except ImportError:
        return entries
    return entries + [np.int64(-q - 2), np.uint64(2**64 - 1), np.int32(q)]


def test_long_words_with_one_planted_entry_match_per_element_formula(code10006):
    # One odd entry in an otherwise in-range word of 2,062 or 2,063
    # symbols, at the first, middle and last position: every check that
    # lets a word skip int() or the reduction sees it.
    code, q = code10006, code10006.q
    m = code.length
    assert m == 2063
    rng = random.Random(10006)
    for entry in _planted_entries(q):
        for n in (m - 1, m):
            for position in (0, n // 2, n - 1):
                word = [rng.randrange(q) for _ in range(n)]
                word[position] = entry
                if n == m - 1:
                    sent = encode(code, word)
                    assert sent == _reference_encode(code, word), (entry, position)
                    assert all(type(v) is int for v in sent)
                    continue
                assert is_codeword(code, word) == (sum(
                    v * b for v, b in zip(_residues(word, q), code.elements))
                    % q == 0)
                want = _reference_decode(code, word)
                if isinstance(want, int):
                    with pytest.raises(UnknownSyndromeError) as info:
                        decode(code, word)
                    assert info.value.syndrome == want
                    continue
                got = decode(code, word)
                assert got == want, (entry, position)
                assert all(type(v) is int for v in got[0])


def _reference_simulate(code, trials, error_rate, rng):
    """The channel's trial loop through the public encode and decode;
    returns (corrected, detected, miscorrected)."""
    counts = [0, 0, 0]
    for _ in range(trials):
        message = [rng.randrange(code.q) for _ in range(code.length - 1)]
        sent = encode(code, message)
        word = list(sent)
        if rng.random() < error_rate:
            position = rng.randrange(code.length)
            magnitude = rng.randint(1, code.lam)
            word[position] = (word[position] + magnitude) % code.q
        try:
            decoded, _ = decode(code, word)
        except UnknownSyndromeError:
            counts[1] += 1
            continue
        counts[0 if decoded == sent else 2] += 1
    return tuple(counts)


@pytest.mark.parametrize("q", sorted(GOLDEN_SETS))
def test_simulate_draws_and_counts_as_the_public_codec_loop(q, monkeypatch):
    # The trials run on the encode and decode cores; the counts and the
    # generator's final state must match a loop through encode and decode.
    made = []

    class Kept(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(magset.codec, "random", types.SimpleNamespace(Random=Kept))
    code = make_code(GOLDEN_SETS[q], q)
    for seed in (0, 7, 123):
        for rate in (0.0, 0.5, 1.0):
            stats = simulate_channel(code, 60, error_rate=rate, seed=seed)
            reference = random.Random(seed)
            assert (stats.corrected, stats.detected, stats.miscorrected) == (
                _reference_simulate(code, 60, rate, reference)) == (60, 0, 0)
            assert made[-1].getstate() == reference.getstate()


def test_simulate_without_a_unit_pivot():
    code = make_code({4}, 20)
    stats = simulate_channel(code, 0, seed=3)
    assert stats.to_json_dict() == {"trials": 0, "corrected": 0, "detected": 0,
                                    "miscorrected": 0, "seed": 3}
    with pytest.raises(NoUnitPivotError):
        simulate_channel(code, 1)
