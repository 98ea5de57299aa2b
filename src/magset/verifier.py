"""Ground truth for the whole package: decide whether a set of residues
has all products e*b mod q (1 <= e <= lam) pairwise distinct and nonzero,
and name the collision when they are not.

Two independent implementations are provided; `is_b1_set` is the default
and `is_b1_set_reference` (hash map) exists so tests can cross-check
them against each other.  `is_b1_set` picks its path from |B| and q:

* dense, 32*|B| >= q: byte-lane images, strided copies into q-byte
  lanes (gcd(e, q) lanes for each e) and no Python work per product.
  They accept a valid set; anything else goes on to the blocks.
* sparse, and dense sets the lanes reject: product sets by blocks of
  elements, O(lam*|B|) set work in C, plus a Python sweep of one block
  on rejection, which names the witness.

Measured at lam = 2..6 with q near 10**5 and 10**6, the two cost the
same at |B| ~ q/48 (q/32 when 12 divides q), whatever lam, and the
lanes are 3 to 5 times faster at |B| ~ q/8.  The lanes read the input
unsorted and refuse anything out of range or repeated; the blocks sort
the ints of `_integers` in `_checked`, which `codec.make_code` shares and
which names the fault.  An entry that `operator.index` refuses raises
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


def _integers(elements: Iterable[int], q: int, lam: int) -> list[int]:
    """The elements as ints, in input order, after checking q and lam;
    an entry that `operator.index` refuses raises TypeError."""
    if q < 1 or lam < 1:
        raise ValueError(f"need q >= 1 and lam >= 1, got q={q}, lam={lam}")
    items = list(elements)
    try:
        return list(map(operator.index, items))
    except TypeError:
        for x in items:
            if not hasattr(type(x), "__index__"):
                raise TypeError(f"element {x!r} is not an integer") from None
        raise


def _checked(elems: list[int], q: int) -> list[int]:
    """Sort the ints that `_integers` returned, in place, and return them
    once they are known to be distinct residues in [1, q)."""
    elems.sort()
    if elems and not 1 <= elems[0] <= elems[-1] < q:
        bad = elems[bisect.bisect_right(elems, q - 1) if elems[0] > 0 else 0]
        raise ValueError(f"element {bad} outside [1, {q - 1}]")
    if len(set(elems)) != len(elems):
        raise ValueError("elements must be distinct")
    return elems


_BLOCK = 1024  # elements per block of is_b1_set
_DENSE = 32  # is_b1_set tries the lanes when _DENSE * |B| >= q


def is_b1_set(elements: Iterable[int], q: int, lam: int = 4) -> Verdict:
    """Byte-lane images for a dense set, product sets by blocks otherwise.

    A set with 32*|B| >= q goes to `_lanes_disjoint`, and an accepted
    one returns at once.  The 32 is where the two paths cost the same
    when 12 divides q, the dearest q for the lanes (q coprime to 6
    breaks even at |B| ~ q/48); lam moves neither, since both costs
    grow with it.  A sparser set never allocates the q-byte lanes, so
    q = 10**12 stays in reach.

    The block path: ``seen`` holds 0 and the products so far; each
    block's lam*|block| products must miss it and grow it by as many
    keys.  The first block that fails is swept in Python, b ascending
    then e, so the witness names the first failing (e, b), paired with
    the first (e', b') of its product: remembered by the sweep, or, in
    an earlier block, found by solving e'*b' == e*b (mod q) for each e'
    and bisecting for b'.
    """
    ints = _integers(elements, q, lam)
    if q <= _DENSE * len(ints) and _lanes_disjoint(ints, q, lam):
        return Verdict(True, None)
    elems = _checked(ints, q)
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


def _lanes_disjoint(ints: list[int], q: int, lam: int) -> bool:
    """Whether ints are distinct residues in [1, q) whose images e*B
    mod q (1 <= e <= lam) are disjoint, one-to-one and miss 0.  False
    for every input that `_checked` refuses, which then names the fault.

    B is marked in ``marks``.  For e*x - j*q with x in [lo, hi) =
    [ceil(j*q/e), ceil((j+1)*q/e)), the product of every x in the range,
    ``lane[e*lo - j*q::e] = marks[lo:hi]`` copies the range's marks to
    its products.  Ranges j and j' land on the same residue class mod e
    when e/gcd(e, q) divides j - j', so each lane holds e/gcd(e, q)
    consecutive ranges and e takes gcd(e, q) lanes.  Read as integers,
    the images are checked against the union of the earlier ones, and
    the union's lowest byte is the product 0.
    """
    marks = bytearray(q)
    try:
        for b in ints:
            marks[b] = 1
    except IndexError:  # b >= q or b < -q
        return False
    seen = int.from_bytes(marks, "little")
    if min(ints) < 1 or seen.bit_count() != len(ints):
        return False  # a b <= 0 or a repeated b
    for e in range(2, lam + 1):
        step = e // math.gcd(e, q)
        for first in range(0, e, step):
            lane = bytearray(q)
            for j in range(first, first + step):
                lo, hi = -(-j * q // e), -(-(j + 1) * q // e)
                lane[e * lo - j * q::e] = marks[lo:hi]
            image = int.from_bytes(lane, "little")
            if seen & image:
                return False
            seen |= image
    return not seen & 0xFF


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
    elems = _checked(_integers(elements, q, lam), q)
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
