"""Ground truth for the whole package: decide whether a set of residues
has all products e*b mod q (1 <= e <= lam) pairwise distinct and nonzero,
and name the collision when they are not.

Two independent implementations are provided; `is_b1_set` (product sets
by blocks of elements: O(lam*|B|) set work in C, plus a Python sweep of
one block on rejection) is the default and `is_b1_set_reference` (hash
map) exists so tests can cross-check them against each other.  Every
entry point sorts the input as integers in `_checked`, which
`codec.make_code` shares; an entry that `operator.index` refuses raises
TypeError.
"""

from __future__ import annotations

import bisect
import math
import operator
from typing import Iterable, NamedTuple, Optional, Union

__all__ = [
    "Verdict",
    "is_b1_set",
    "is_b1_set_reference",
    "format_witness",
]

# Witness of invalidity: (e, b) when e*b == 0 (mod q); (e1, b1, e2, b2)
# when e1*b1 == e2*b2 (mod q) for distinct pairs.
Witness = Union[tuple[int, int], tuple[int, int, int, int]]


class Verdict(NamedTuple):
    valid: bool
    witness: Optional[Witness]

    def __bool__(self) -> bool:  # allow `if is_b1_set(...):`
        return self.valid


def _checked(elements: Iterable[int], q: int, lam: int) -> list[int]:
    if q < 1 or lam < 1:
        raise ValueError(f"need q >= 1 and lam >= 1, got q={q}, lam={lam}")
    items = list(elements)
    try:
        elems = sorted(map(operator.index, items))
    except TypeError:
        for x in items:
            if not hasattr(type(x), "__index__"):
                raise TypeError(f"element {x!r} is not an integer") from None
        raise
    if elems and not 1 <= elems[0] <= elems[-1] < q:
        bad = elems[bisect.bisect_right(elems, q - 1) if elems[0] > 0 else 0]
        raise ValueError(f"element {bad} outside [1, {q - 1}]")
    if len(set(elems)) != len(elems):
        raise ValueError("elements must be distinct")
    return elems


_BLOCK = 1024  # elements per block of is_b1_set


def is_b1_set(elements: Iterable[int], q: int, lam: int = 4) -> Verdict:
    """Product sets by ascending blocks of elements: O(lam*|B|) set work.

    ``seen`` holds 0 and the products so far; each block's lam*|block|
    products must miss it and grow it by as many keys.  The first block
    that fails is swept in Python, b ascending then e, so the witness
    names the first failing (e, b), paired with the first (e', b') of
    its product: remembered by the sweep, or, in an earlier block, found
    by solving e'*b' == e*b (mod q) for each e' and bisecting for b'.
    """
    elems = _checked(elements, q, lam)
    seen = {0}
    for start in range(0, len(elems), _BLOCK):
        block = elems[start:start + _BLOCK]
        products = block + [e * b % q for e in range(2, lam + 1) for b in block]
        size = len(seen) + len(products)
        if seen.isdisjoint(products):
            seen.update(products)
            if len(seen) == size:
                continue
            seen.difference_update(products)  # back to the earlier blocks
        return Verdict(False, _witness(elems, start, seen, q, lam))
    return Verdict(True, None)


def _witness(elems: list[int], start: int, earlier: set[int], q: int,
             lam: int) -> Witness:
    in_block = {}
    for b in elems[start:]:
        for e in range(1, lam + 1):
            s = e * b % q
            if s == 0:
                return (e, b)
            if s in earlier:  # the earlier blocks are valid: one e1*x is s
                e1, x = next((e1, x) for e1 in range(1, lam + 1)
                             for x in _solutions(e1, s, q)
                             if _member(elems, x, start))
                return (e1, x, e, b)
            if s in in_block:
                return (*in_block[s], e, b)
            in_block[s] = (e, b)
    raise AssertionError("collision vanished on rewalk")  # pragma: no cover


def _solutions(e: int, s: int, q: int) -> range:
    """The x in [0, q) with e*x == s (mod q): none unless g = gcd(e, q)
    divides s, else g of them, q/g apart."""
    g = math.gcd(e, q)
    if s % g:
        return range(0)
    m = q // g
    return range(s // g * pow(e // g, -1, m) % m, q, m)


def _member(elems: list[int], x: int, stop: int) -> bool:
    """Whether x is among the sorted elems[:stop]."""
    i = bisect.bisect_left(elems, x, 0, stop)
    return i < stop and elems[i] == x


def is_b1_set_reference(elements: Iterable[int], q: int, lam: int = 4) -> Verdict:
    """Independent hash-map implementation used for cross-checking."""
    elems = _checked(elements, q, lam)
    seen: dict[int, tuple[int, int]] = {}
    for b in elems:
        for e in range(1, lam + 1):
            s = e * b % q
            if s == 0:
                return Verdict(False, (e, b))
            if s in seen:
                return Verdict(False, (*seen[s], e, b))
            seen[s] = (e, b)
    return Verdict(True, None)


def format_witness(witness: Optional[Witness], q: int) -> str:
    """Human-readable collision, e.g. '2*1 == 1*2 (mod 9)'."""
    if witness is None:
        return "no collision"
    if len(witness) == 2:
        e, b = witness
        return f"{e}*{b} == 0 (mod {q})"
    e1, b1, e2, b2 = witness
    return f"{e1}*{b1} == {e2}*{b2} (mod {q})"
