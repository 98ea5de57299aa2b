"""Modular-arithmetic substrate: factorization, totients, multiplicative
orders, base-3 discrete logs, unit subgroups, and coset representative
systems.

Everything here is a pure function of its inputs; returned objects are
immutable and safe to share across threads.  Target scale is moduli up to
about 10**6, where trial division and ascending scans are more than fast
enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Factorization",
    "CosetSystem",
    "factorize",
    "divisors",
    "euler_phi",
    "mult_order",
    "mult_order_naive",
    "two_adic_valuation",
    "subgroup",
    "coset_reps",
    "dlog3",
]


@dataclass(frozen=True)
class Factorization:
    """A positive integer with its canonical prime factorization."""

    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError("factors must have ascending primes, exponents >= 1")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise ValueError("factor product does not equal value")


@dataclass(frozen=True)
class CosetSystem:
    """A transversal of the cosets of <generators> inside the unit group."""

    modulus: int
    generators: tuple[int, ...]
    subgroup_order: int
    representatives: tuple[int, ...]  # ascending; always starts with 1


@lru_cache(maxsize=None)
def factorize(n: int) -> Factorization:
    """Canonical prime factorization by trial division (n = 1 -> empty)."""
    if n < 1:
        raise ValueError(f"factorize requires a positive integer, got {n}")
    value = n
    factors: list[tuple[int, int]] = []
    for p in _trial_primes(n):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    if n > 1:
        factors.append((n, 1))
    return Factorization(value, tuple(factors))


def _trial_primes(n: int):
    yield 2
    yield 3
    p = 5
    while p * p <= n:
        yield p
        yield p + 2
        p += 6


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient, computed from the factorization."""
    out = 1
    for p, e in factorize(n).factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def two_adic_valuation(n: int) -> int:
    """Largest e with 2**e dividing n."""
    if n < 1:
        raise ValueError(f"two_adic_valuation requires a positive integer, got {n}")
    return (n & -n).bit_length() - 1


def mult_order_naive(l: int, d: int) -> int:
    """Reference implementation: step through powers until 1 reappears."""
    if d < 1 or math.gcd(l, d) != 1:
        raise ValueError(f"mult_order requires gcd(l, d) = 1, got l={l}, d={d}")
    if d == 1:
        return 1
    x = l % d
    n = 1
    while x != 1:
        x = x * l % d
        n += 1
    return n


@lru_cache(maxsize=None)
def mult_order(l: int, d: int) -> int:
    """Smallest n > 0 with l**n == 1 (mod d).

    Computed structurally: the order mod d is the lcm of the orders mod
    each prime power dividing d; mod p**e the order is the order mod p
    (a divisor of p-1, found by testing divisors ascending) multiplied by
    p as many times as needed.  Powers of 2 get their base order from a
    direct check mod min(d, 8) since the unit group is not cyclic there.
    """
    if d < 1 or math.gcd(l, d) != 1:
        raise ValueError(f"mult_order requires gcd(l, d) = 1, got l={l}, d={d}")
    if d == 1:
        return 1
    out = 1
    for p, e in factorize(d).factors:
        out = math.lcm(out, _order_mod_prime_power(l, p, e))
    return out


def _order_mod_prime_power(l: int, p: int, e: int) -> int:
    if p == 2:
        base_exp = min(e, 3)
        n = mult_order_naive(l, 2**base_exp)  # group mod 8 has exponent 2
        for j in range(base_exp + 1, e + 1):
            if pow(l, n, 2**j) != 1:
                n *= 2
        return n
    n = next(m for m in divisors(p - 1) if pow(l, m, p) == 1)
    for j in range(2, e + 1):
        if pow(l, n, p**j) != 1:
            n *= p
    return n


@lru_cache(maxsize=None)
def subgroup(generators: tuple[int, ...], modulus: int) -> frozenset[int]:
    """The subgroup of units mod modulus generated by the given residues."""
    for g in generators:
        if math.gcd(g, modulus) != 1:
            raise ValueError(f"generator {g} is not a unit mod {modulus}")
    group = {1 % modulus}
    frontier = [1 % modulus]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = x * g % modulus
            if y not in group:
                group.add(y)
                frontier.append(y)
    return frozenset(group)


@lru_cache(maxsize=None)
def coset_reps(generators: tuple[int, ...], modulus: int) -> CosetSystem:
    """Deterministic coset transversal of <generators> in the unit group.

    Scan units in ascending order and emit any unit not in a previously
    covered coset; 1 is therefore always the first representative.
    """
    gens = tuple(generators)
    sub = subgroup(gens, modulus)
    covered: set[int] = set()
    reps: list[int] = []
    for a in range(1, modulus + 1 if modulus == 1 else modulus):
        if math.gcd(a, modulus) != 1 or a in covered:
            continue
        reps.append(a)
        covered.update(a * h % modulus for h in sub)
    return CosetSystem(modulus, gens, len(sub), tuple(reps))


@lru_cache(maxsize=None)
def dlog3(target: int, d: int) -> int | None:
    """Smallest s >= 1 with 3**s == target (mod d), or None if unreachable.

    For target == 1 this returns the full order of 3 (the smallest
    positive exponent hitting 1).
    """
    if d < 1 or math.gcd(target, d) != 1 or math.gcd(3, d) != 1:
        raise ValueError(f"dlog3 requires gcd(target, d) = gcd(3, d) = 1, "
                         f"got target={target}, d={d}")
    if d == 1:
        return 1
    target %= d
    x = 3 % d
    s = 1
    n = mult_order(3, d)
    while s <= n:
        if x == target:
            return s
        x = x * 3 % d
        s += 1
    return None
