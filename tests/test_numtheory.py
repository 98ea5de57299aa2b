"""Arithmetic toolkit: factorization, orders, orbits, coset transversals."""

import math

import pytest

from magset.numtheory import (
    CosetSystem,
    coset_reps,
    divisors,
    dlog3,
    euler_phi,
    factorize,
    mult_order,
    mult_order_naive,
    subgroup,
    two_adic_valuation,
)


# -- factorization / basics -------------------------------------------------

def test_factorize_small():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(97).factors == ((97, 1),)
    assert factorize(2**5 * 95).value == 3040


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


def test_mult_order_rejects_non_unit():
    with pytest.raises(ValueError):
        mult_order(3, 9)


# -- discrete log of 2 base 3 -----------------------------------------------

def test_dlog3_examples():
    assert dlog3(2, 5) == 3
    assert dlog3(2, 19) == 7
    assert dlog3(2, 11) is None


def test_dlog3_consistency():
    for d in range(5, 300, 2):
        if math.gcd(d, 6) != 1:
            continue
        s = dlog3(2, d)
        if s is None:
            assert 2 not in subgroup((3,), d)
        else:
            assert pow(3, s, d) == 2 % d
            assert 0 <= s < mult_order(3, d)


# -- subgroups ------------------------------------------------------------

def test_subgroup_contents():
    assert subgroup((3,), 10) == {1, 3, 9, 7}
    assert subgroup((2, 3), 11) == {pow(2, a, 11) * pow(3, b, 11) % 11
                                    for a in range(10) for b in range(10)}


# -- coset transversals ------------------------------------------------------

def test_coset_reps_examples():
    assert coset_reps((3,), 10).representatives == (1,)
    assert coset_reps((3,), 22).representatives == (1, 7)
    assert coset_reps((3,), 190).representatives == (1, 7)
    assert coset_reps((3,), 8).representatives == (1, 5)


def test_coset_reps_rejects_non_unit_generator():
    with pytest.raises(ValueError):
        coset_reps((2,), 10)


@pytest.mark.parametrize("modulus", [10, 22, 38, 110, 146, 190, 386])
def test_coset_reps_partition_units(modulus):
    system = coset_reps((3,), modulus)
    assert isinstance(system, CosetSystem)
    reps = system.representatives
    assert reps[0] == 1
    assert list(reps) == sorted(reps)
    sub = subgroup((3,), modulus)
    covered = set()
    for a in reps:
        coset = {a * g % modulus for g in sub}
        assert not (coset & covered), "cosets overlap"
        covered |= coset
    units = {x for x in range(modulus) if math.gcd(x, modulus) == 1}
    assert covered == units
    assert len(reps) * len(sub) == euler_phi(modulus)
