"""Arithmetic toolkit: factorization, orders, orbits, coset transversals."""

import itertools
import math

import pytest

from magset.numtheory import (
    coset_reps,
    discrete_log,
    divisors,
    euler_phi,
    factorize,
    mult_order,
    mult_order_naive,
    power_list,
    two_adic_valuation,
)


# -- factorization / basics -------------------------------------------------

def test_factorize_small():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    assert factorize(2**5 * 95) == ((2, 5), (5, 1), (19, 1))


def test_factorize_is_canonical():
    # Ascending primes, positive exponents, product n.
    for n in range(1, 3000):
        factors = factorize(n)
        primes = [p for p, _ in factors]
        assert primes == sorted(set(primes)), n
        assert all(p >= 2 and e >= 1 and
                   all(p % f for f in range(2, math.isqrt(p) + 1))
                   for p, e in factors), n
        assert math.prod(p**e for p, e in factors) == n, n


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_divisors_ascending():
    assert divisors(1) == [1]
    assert divisors(95) == [1, 5, 19, 95]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 9, 10, 97)] == [1, 1, 6, 4, 96]
    assert euler_phi(2 * 95) == euler_phi(2) * euler_phi(5) * euler_phi(19)


def test_two_adic_valuation():
    assert [two_adic_valuation(x) for x in (1, 2, 8, 12, 40)] == [0, 1, 3, 2, 3]


# -- multiplicative order ---------------------------------------------------

def test_mult_order_examples():
    assert mult_order(3, 8) == 2
    assert mult_order(3, 5) == 4
    assert mult_order(3, 95) == 36
    assert mult_order(1, 7) == 1


def test_mult_order_matches_naive_loop():
    for ell in (2, 3, 5, 7):
        for d in range(1, 400):
            if math.gcd(ell, d) != 1:
                continue
            assert mult_order(ell, d) == mult_order_naive(ell, d), (ell, d)


def test_mult_order_certificates_at_eightfold_scale():
    # Moduli 2**k * d as the eightfold recursion meets them, beyond the
    # reach of the naive loop: n is an order of l exactly when l**n == 1
    # and l**(n/p) != 1 for every prime p of n.
    for d in (1, 5, 7, 12547, 25013, 5 * 7 * 11 * 13):
        for k in range(21):
            modulus = 2**k * d
            for ell in {3, d + 2}:
                if math.gcd(ell, modulus) != 1:
                    continue
                n = mult_order(ell, modulus)
                assert pow(ell, n, modulus) == 1 % modulus, (ell, modulus)
                for p, _ in factorize(n):
                    assert pow(ell, n // p, modulus) != 1, (ell, modulus, p)


def test_mult_order_rejects_non_unit():
    with pytest.raises(ValueError):
        mult_order(3, 9)


# -- power lists -------------------------------------------------------------

def test_power_list_matches_pow():
    for mod in (1, 2, 7, 10, 26, 97):
        for g in (0, 1, 2, 3, mod - 1, mod + 5):
            for count in (0, 1, 2, 13):
                assert power_list(g, count, mod) == \
                    [pow(g, e, mod) for e in range(count)], (g, count, mod)


# -- discrete logs -----------------------------------------------------------

def test_discrete_log_matches_brute_force():
    # Every y mod M, M <= 400, for the base 3 (M prime to 3, odd and even)
    # and the base 2 (odd M): the first e with g**e == y, or None for
    # non-units and units outside <g>.
    for modulus in range(1, 401):
        for g in (3, 2):
            if math.gcd(g, modulus) != 1:
                continue
            n = mult_order_naive(g, modulus)
            first = {}
            for e in range(n):
                first.setdefault(pow(g, e, modulus), e)
            log = discrete_log(g, n, modulus)
            for y in range(modulus):
                assert log(y) == first.get(y), (g, modulus, y)
            assert log(-1) == first.get(modulus - 1), (g, modulus)
            assert log(modulus + 1) == first.get(1 % modulus), (g, modulus)


# -- coset transversals ------------------------------------------------------

def brute_subgroup(generators, modulus):
    """Every product of generator powers, each power below its order."""
    orders = [mult_order_naive(g, modulus) for g in generators]
    return {math.prod(pow(g, e, modulus) for g, e in zip(generators, exps))
            % modulus for exps in itertools.product(*map(range, orders))}


def brute_transversal(generators, modulus):
    """Ascending units, each kept unless an earlier kept unit shares its coset."""
    sub = brute_subgroup(generators, modulus)
    reps = []
    for a in range(1, modulus):
        if math.gcd(a, modulus) == 1 and all(
                a * pow(b, -1, modulus) % modulus not in sub for b in reps):
            reps.append(a)
    return tuple(reps)


def test_coset_reps_examples():
    assert coset_reps((3,), 10) == (1,)
    assert coset_reps((3,), 22) == (1, 7)
    assert coset_reps((3,), 190) == (1, 7)
    assert coset_reps((3,), 8) == (1, 5)
    assert coset_reps((3,), 1) == (1,)


def test_coset_reps_rejects_non_unit_generator():
    with pytest.raises(ValueError):
        coset_reps((2,), 10)
    with pytest.raises(ValueError):
        coset_reps((3, 11), 22)


def test_coset_reps_rejects_no_generators_and_bad_modulus():
    with pytest.raises(ValueError, match=r"at least one generator, got \(\)"):
        coset_reps((), 10)
    for modulus in (0, -5):
        with pytest.raises(ValueError, match=f"M >= 1, got M={modulus}"):
            coset_reps((3,), modulus)


@pytest.mark.parametrize("modulus", [10, 22, 38, 110, 146, 190, 386])
def test_coset_reps_partition_units(modulus):
    reps = coset_reps((3,), modulus)
    assert reps == brute_transversal((3,), modulus)
    assert len(reps) * len(brute_subgroup((3,), modulus)) == euler_phi(modulus)


def test_coset_reps_of_three_and_two_lift():
    # Family-B divisors d (2 outside the orbit of 3 mod d): the grid
    # patterns take a transversal of <3, d + 2> in the units mod 2d.
    family_b = [d for d in range(5, 200) if math.gcd(d, 6) == 1
                and 2 not in {pow(3, e, d) for e in range(d)}]
    assert family_b[:5] == [11, 13, 35, 37, 41]
    for d in family_b:
        gens = (3, d + 2)
        reps = coset_reps(gens, 2 * d)
        assert reps == brute_transversal(gens, 2 * d), d
        assert len(reps) * len(brute_subgroup(gens, 2 * d)) == euler_phi(d), d


def covering_transversal(subgroup, modulus):
    """Ascending units, each kept unless an earlier kept unit's coset,
    multiplied out in full, holds it."""
    reps, covered = [], set()
    for a in range(1, modulus):
        if math.gcd(a, modulus) == 1 and a not in covered:
            reps.append(a)
            covered |= {a * x % modulus for x in subgroup}
    return tuple(reps)


def test_coset_reps_match_brute_force_below_1500():
    # Every modulus prime to 3, the eightfold moduli 2**k * d among them.
    for modulus in range(2, 1500):
        if modulus % 3:
            assert coset_reps((3,), modulus) == brute_transversal(
                (3,), modulus), modulus
    # <3, d + 2> at every 2d: brute_subgroup would enumerate up to
    # phi(d)**2 exponent pairs, so <3, b> is built as the cosets b**j <3>
    # for j below the first power of b inside <3>.
    for d in range(5, 750):
        if math.gcd(d, 6) == 1:
            modulus, b = 2 * d, d + 2
            threes = brute_subgroup((3,), modulus)
            subgroup, bj = set(threes), b
            while bj not in threes:
                subgroup |= {x * bj % modulus for x in threes}
                bj = bj * b % modulus
            assert coset_reps((3, b), modulus) == covering_transversal(
                subgroup, modulus), d


def test_coset_reps_of_every_single_generator():
    # Any unit generates the subgroup the orbit seed of the exact search
    # takes cosets of, so every g is checked, not only 3; the moduli
    # include multiples of 3 and powers of 2.
    for modulus in range(2, 251):
        for g in range(1, modulus):
            if math.gcd(g, modulus) == 1:
                assert coset_reps((g,), modulus) == brute_transversal(
                    (g,), modulus), (g, modulus)


def test_coset_reps_single_coset_walks_nothing():
    # 3 generates every unit mod 2 * 25013, so the transversal is found
    # from the order of 3 alone.
    assert coset_reps((3,), 50026) == (1,)
