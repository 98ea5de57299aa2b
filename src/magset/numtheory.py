"""Modular-arithmetic substrate: factorization, divisors, totients,
2-adic valuations, multiplicative orders, power lists and coset
transversals in the unit group.

Everything here is a pure function of its inputs.  Target scale is
moduli up to about 10**6, where trial division is fast enough.  Every
order is `mult_order`'s, every list of successive powers `power_list`'s;
a coset transversal walks every coset but the last, as cycles x -> x * g.
"""

from __future__ import annotations

import math

__all__ = [
    "factorize",
    "divisors",
    "euler_phi",
    "mult_order",
    "mult_order_naive",
    "two_adic_valuation",
    "power_list",
    "coset_reps",
]


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division: ((prime, exponent), ...)
    with primes ascending (n = 1 -> empty)."""
    if n < 1:
        raise ValueError(f"factorize requires a positive integer, got {n}")
    factors: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    """Euler totient, computed from the factorization."""
    out = 1
    for p, e in factorize(n):
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


def mult_order(l: int, d: int) -> int:
    """Smallest n > 0 with l**n == 1 (mod d).

    The order divides phi(d), so start at n = phi(d) and divide each prime
    p of phi(d) out of n while l**(n/p) == 1 (mod d).  The order divides
    each n reached, and at the end no n/p works, so n is the order.
    """
    if d < 1 or math.gcd(l, d) != 1:
        raise ValueError(f"mult_order requires gcd(l, d) = 1, got l={l}, d={d}")
    n = euler_phi(d)
    for p, _ in factorize(n):
        while n % p == 0 and pow(l, n // p, d) == 1:
            n //= p
    return n


def power_list(g: int, count: int, mod: int) -> list[int]:
    """``[pow(g, e, mod) for e in range(count)]`` by a running product."""
    out = []
    x = 1 % mod
    for _ in range(count):
        out.append(x)
        x = x * g % mod
    return out


def coset_reps(generators: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    """Ascending coset transversal of <generators> in the units mod modulus.

    Non-units are struck out by one slice per prime of the modulus.  Each
    representative is the smallest unit left (`bytearray.find`: 1 first).
    Its coset is walked as cycles x -> x * g of the first generator g: one
    from the representative, one from each start times a later generator.
    The walk stops at phi/|H| representatives, |H| the order of a lone
    generator or else the first coset's size: the last is never walked.
    """
    for g in generators:
        if math.gcd(g, modulus) != 1:
            raise ValueError(f"generator {g} is not a unit mod {modulus}")
    if modulus == 1:
        return (1,)
    covered = bytearray(modulus)
    for p, _ in factorize(modulus):
        covered[::p] = b"\x01" * len(range(0, modulus, p))
    units = euler_phi(modulus)
    size = mult_order(generators[0], modulus) if len(generators) == 1 else 0
    reps, g, others = [1], generators[0], generators[1:]
    while len(reps) * size < units:
        starts = [reps[-1]]
        for x in starts:  # also visits what the loop appends
            if others and not covered[x]:  # a cycle not yet walked
                starts += [x * h % modulus for h in others]
            while not covered[x]:
                covered[x], x = 1, x * g % modulus
        size = size or covered.count(1) - (modulus - units)
        if len(reps) * size < units:
            reps.append(covered.find(0, reps[-1] + 1))
    return tuple(reps)
