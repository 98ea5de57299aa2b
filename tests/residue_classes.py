"""Residue partitions of Z_q that the property tests check.

For q = 2**k * r with r odd, the divisor class V_d of a divisor d of r
holds the x in Z_q with r / gcd(x, r) = d; its 2-adic layers are
U_i = {x in V_d : gcd(x, 2**k) = 2**i}.  The valuation classes split
Z_q \\ {0} by 2-adic valuation.
"""

import math

from magset.numtheory import divisors, two_adic_valuation


def divisor_classes(q: int) -> list:
    """[(d, V_d, (U_0, ..., U_k))] for every divisor d of r, ascending in d."""
    k = two_adic_valuation(q)
    r = q >> k
    out = []
    for d in divisors(r):
        v_d = frozenset(x for x in range(q) if r // math.gcd(x, r) == d)
        layers = tuple(frozenset(x for x in v_d if math.gcd(x, 1 << k) == 1 << i)
                       for i in range(k + 1))
        out.append((d, v_d, layers))
    return out


def valuation_classes(q: int, top: int) -> tuple:
    """Z_q \\ {0} split by 2-adic valuation 0, 1, ..., top - 1 and >= top."""
    buckets = [set() for _ in range(top + 1)]
    for x in range(1, q):
        buckets[min(two_adic_valuation(x), top)].add(x)
    return tuple(frozenset(b) for b in buckets)
