"""Explicit constructions of large valid sets for even moduli.

A *valid set* for modulus ``q`` and magnitude bound ``lam`` is a set of
nonzero residues whose syndromes ``e * b mod q`` (``1 <= e <= lam``) are
pairwise distinct and never zero (see :mod:`magset.verifier`).  This
module builds such sets of maximum known size for ``q = 2**k * r`` with
``gcd(r, 6) = 1`` and ``lam = 4``, covering three even modulus shapes
(an odd ``q`` takes the exact search's witness instead):

* ``q = 2r``   -- a union of per-divisor pieces, one for each divisor
  ``d`` of ``r``.  Each piece lives inside the class ``V_d`` of residues
  whose odd part has gcd-cofactor ``d`` and is produced by an explicit
  pattern over the orbit structure of 3 (and, where needed, of 2) in the
  units mod ``2d``.  A piece that meets the counting bound
  ``phi(d)/2`` of its class is maximum there (see
  :func:`build_divisor_piece`); the rest are lower bounds, which
  ``exact_max(2d)`` restricted to ``V_d`` certifies or improves while
  the class is small.
* ``q = 4r``   -- an exactly maximum set of size ``r - 1`` (this meets
  the counting upper bound ``floor((q-1)/4)``): the layer's orbit
  pieces below at ``M = 2d``, one per divisor ``d > 1`` of ``r``.
* ``q = 2**k r`` with ``k >= 3`` -- a recursion: a layer of
  ``2**(k-3) * r`` new elements is united with ``8 * S`` where ``S`` is
  a constructed set for modulus ``q / 8``.  The layer holds one orbit
  piece of 3 per divisor ``d`` of ``r`` at ``M = 2**(k-2) * d`` (see
  :func:`_orbit_layer`); its size is exact, so the result is maximum
  exactly when the recursive base is.  Its elements are odd, as are
  those of the ``q = 4r`` set: ``alpha = a * r/d`` is odd, powers of 3
  are odd, and the twist ``level * r`` is even.

Every route ends in one assembly step that verifies the whole set
before it is reported; a failure raises :class:`ConstructionError`
rather than returning a bad set.  Pieces are checked only inside that
union: a ``q = 2r`` piece is valid at ``q`` exactly when its pattern is
valid at ``2d``, since scaling by ``r/d`` maps conflicts to conflicts
both ways.

Every pattern piece is valid, but not every piece is maximum in its
class.  Against an independent exact search, construct matches the true
maximum for all even ``q <= 106``, and the pattern sums alone
(``build_twice_odd(r, refine=False)``) match it for every ``q = 2r``,
``r <= 53``.  Beyond that some patterns fall short (first at
d = 59, 71, 73, 79); only pieces that meet the counting bound (or have
m = 2) and search-certified pieces are claimed maximum.  A report is
``tight`` exactly when all its pieces are certified, its base, if any,
is tight and its search, if any, was exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from typing import Optional

from .numtheory import coset_reps, divisors, euler_phi, mult_order, power_list
from .residues import Instance
from .search import Budget, SearchResult, exact_max
from .verifier import format_witness, is_b1_set

__all__ = [
    "ConstructionError",
    "DivisorContext",
    "Piece",
    "ConstructionReport",
    "REFINE_VERTEX_CAP",
    "hamming_upper_bound",
    "divisor_context",
    "build_divisor_piece",
    "build_twice_odd",
    "build_four_times_odd",
    "build_eightfold",
    "construct",
]


class ConstructionError(ValueError):
    """A construction precondition failed or an internal guard tripped."""


def hamming_upper_bound(q: int, lam: int = 4) -> int:
    """Counting upper bound on valid-set size: floor((q-1)/lam).

    Each element occupies ``lam`` distinct nonzero syndromes, of which
    there are ``q - 1``.  The bound is met for ``q = 4r`` but is not
    tight in general (e.g. q=40 allows 9 while the true maximum is 6).
    """
    if q < 1 or lam < 1:
        raise ValueError(f"need q >= 1 and lam >= 1, got q={q}, lam={lam}")
    return (q - 1) // lam


# --------------------------------------------------------------------------
# Per-divisor parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisorContext:
    """Orbit parameters of one divisor d (gcd(d,6)=1, d >= 5).

    ``n`` is the multiplicative order of 3 mod d (equal to its order mod
    2d).  The pattern family splits on whether 2 lies in the subgroup
    generated by 3:

    * ``two_in_three`` -- then ``s`` solves ``3**s == 2 (mod d)`` with
      ``1 <= s <= n - 1``;  ``m = min(s, n - s)``, and ``n`` splits as
      ``n = 2 * k_prime * m + r_prime`` with ``0 <= r_prime < 2m``.
      ``reps`` is a transversal of the cosets of <3> in the units mod 2d.
    * otherwise -- ``t`` is the index ``|<2,3>| / |<3>|`` mod d, ``b``
      is the odd lift ``d + 2`` of 2, ``s`` is the unique exponent in
      ``[0, n-1]`` with ``2**t * 3**s == 1 (mod d)``, and ``reps`` is a
      transversal of the cosets of <3, b> in the units mod 2d.

    ``powers`` lists 3**e mod 2d for 0 <= e < n.  Unused parameters of
    the other family are None.
    """

    d: int
    n: int
    two_in_three: bool
    s: int
    reps: tuple[int, ...]
    m: Optional[int] = None
    k_prime: Optional[int] = None
    r_prime: Optional[int] = None
    t: Optional[int] = None
    b: Optional[int] = None
    powers: tuple[int, ...] = field(default=(), repr=False)


def divisor_context(d: int) -> DivisorContext:
    """Compute the orbit parameters that select a pattern for divisor d.

    n is the order of 3 mod 2d (also mod d, as 3 is odd); ``powers`` is
    the orbit of 3 mod 2d.  Its members are odd, so 3**e == y (mod d)
    exactly when it holds y's odd lift, y or y + d.  b = d + 2 lifts 2 and
    b**t mod 2d lifts 2**t; t is the first power that lands in the orbit:
    t = 1 in family A, whose s is the index of b, and family B's s is that
    of b**-t.  The list scans take at most t * n <= phi(d) comparisons.
    """
    if d < 5 or math.gcd(d, 6) != 1:
        raise ConstructionError(
            f"divisor contexts exist for d >= 5 with gcd(d, 6) = 1, got d={d}")
    n = mult_order(3, 2 * d)
    powers = power_list(3, n, 2 * d)
    t, b, b_t = 1, d + 2, d + 2
    while b_t not in powers:
        t, b_t = t + 1, b_t * b % (2 * d)
    if t == 1:
        s_two = powers.index(b)
        m = min(s_two, n - s_two)
        k_prime = n // (2 * m)
        ctx = DivisorContext(d=d, n=n, two_in_three=True, s=s_two,
                             reps=coset_reps((3,), 2 * d), m=m,
                             k_prime=k_prime, r_prime=n - 2 * k_prime * m,
                             powers=tuple(powers))
    else:
        ctx = DivisorContext(d=d, n=n, two_in_three=False,
                             s=powers.index(pow(b_t, -1, 2 * d)),
                             reps=coset_reps((3, b), 2 * d), t=t, b=b,
                             powers=tuple(powers))
    if len(ctx.reps) * (ctx.t or 1) * n != euler_phi(d):
        raise ConstructionError(f"coset count mismatch for d={d}")
    return ctx


# --------------------------------------------------------------------------
# Both pattern families are written as runs (j, parity, start, stop): the
# cells (j, 2i + parity) for start <= i < stop.  _cells expands them, and
# _exponents the exponents alone (family A has the one row j = 0).
#
# Pattern family A: 2 lies in the orbit of 3 mod d.
#
# One piece is a set of exponents E; the piece elements are
# {a * 3**e mod 2d : a in reps, e in E}.  Conflicts between exponents of
# a single coset form the circulant graph C_n(+-1, +-s) (multiplying by
# 3 shifts e by 1; multiplying by 2 shifts e by s), so E must be
# independent in that circulant.  Most patterns are the blocks of even
# then odd runs of length m (_blocks) plus a few literal runs; m = 2
# (period 3) and the k'=1 branch with 2 < r' <= m (a checkerboard with
# one domain wall) are not runs and stay explicit lists.
# --------------------------------------------------------------------------

def _exponents(runs):
    """The exponents 2i + parity of each run, in order (an iterator)."""
    return chain.from_iterable(range(2 * start + parity, 2 * stop + parity, 2)
                               for _, parity, start, stop in runs)


def _cells(runs: list) -> list[tuple[int, int]]:
    """The cells (j, 2i + parity) of each run, in order."""
    rows = chain.from_iterable(repeat(j, stop - start) for j, _, start, stop in runs)
    return list(zip(rows, _exponents(runs)))


def _blocks(count: int, m: int) -> list[tuple[int, int, int, int]]:
    """The first ``count`` blocks of the standard packing: block b starts
    at half-index lo = b*m with m//2 evens, then odds up to lo + m - 1."""
    return [run for lo in range(0, count * m, m) for run in
            ((0, 0, lo, lo + m // 2), (0, 1, lo + m // 2, lo + m - 1))]


def _domain_wall_exponents(n: int, m: int) -> list[int]:
    """Independent exponents in C_n(+-1, +-m) for even m, n with 2m < n <= 3m.

    Lifting e = i + m*j puts the exponents on the grid Z^2, where the
    lifts of 0 form the lattice spanned by (-m, 1) and (n - 2m, 2).  One
    colour of the checkerboard is independent in the grid but does not
    close up, since (-m, 1) joins cells of opposite colour.  So the phase
    must flip across a domain wall along a lattice vector (b*n - c*m, c)
    with c even and b odd, and the wall costs half its L-infinity length
    W.  For each even c in [2, n - 2m] the odd b nearest c*m/n gives the
    shortest wall; the shortest over all c (smallest c on ties) is used.

    In exponent terms, e is kept when e + floor(c*e/n) is even and
    c*e mod n < n - W.  The step e -> e+1 moves c*e by c, and e -> e+m
    moves it by c*m = b*n + (c*m - b*n): an odd number b of whole turns
    plus at most W.  Unless a step also crosses a multiple of n, the
    parity of e + floor(c*e/n) flips along it, so at most one end is
    kept; if it does cross, the end before the crossing has
    c*e mod n >= n - W and is dropped.  The rule depends on e only mod n,
    since n and c are even.  It keeps n/2 - W/2 exponents (tested for
    every such pair with m <= 60); c = 2 gives W = n - 2m, so never
    fewer than m.  n/2 - W/2 is also the exact in-class maximum wherever
    that has been checked (d = 49 by the refine search), but is not
    proven to be.
    """
    def wall_length(c: int) -> int:
        b = 2 * (c * m // (2 * n)) + 1  # the odd integer nearest c*m/n
        return max(c, abs(c * m - b * n))

    c = min(range(2, n - 2 * m + 1, 2), key=wall_length)
    wall = wall_length(c)
    return [e for e in range(n)
            if (e + c * e // n) % 2 == 0 and c * e % n < n - wall]


def _orbit_exponents(n: int, s: int, m: int, k_prime: int,
                     r_prime: int) -> tuple[str, list[int]]:
    """Choose the exponent pattern for family A; returns (case label, E)."""
    kp, rp = k_prime, r_prime
    top = kp * m  # the half-index where the blocks end
    if n % 2 == 0:
        if s % 2 == 1:
            # All even exponents work: their pairwise differences are even
            # while both conflict offsets (1 and s) are odd.  Size n/2 meets
            # the in-class optimum.
            label, runs = "n-even/s-odd", [(0, 0, 0, n // 2)]
        elif m == 2:
            # Period-3 packing; provably the in-class optimum for m = 2.
            return "n-even/s-even/m=2", [3 * i for i in range(n // 3)]
        elif rp == 0:
            label, runs = "n-even/s-even/r'=0", _blocks(kp, m)
        elif rp == 2:
            label, runs = "n-even/s-even/r'=2", _blocks(kp, m) + [(0, 1, top - 1, top)]
        elif rp <= m and kp == 1:
            return "n-even/s-even/2<r'<=m/k'=1", _domain_wall_exponents(n, m)
        elif rp <= m:
            label, runs = "n-even/s-even/2<r'<=m/k'>=2", _blocks(kp - 1, m) + [
                (0, 0, top - m + 1, top - m // 2 + 1),
                (0, 1, top - m // 2 + 1, top + 1),
                (0, 1, top - m - 1, top - m)]
        else:
            label, runs = "n-even/s-even/r'>m", _blocks(kp - 1, m) + [
                (0, 0, top - m, top + (rp - 3 * m) // 2),
                (0, 1, top - (m + 2) // 2, top + (rp - 2 * m - 2) // 2),
                (0, 0, top + (rp - 2 * m) // 2, top + (rp - m) // 2),
                (0, 1, top + (rp - m) // 2, top + (rp - 2) // 2)]
    elif m % 2 == 1:
        label, runs = "n-odd/m-odd", [(0, 0, 0, (n - m) // 2)]
    else:
        # the evens of block k'-1, then odds and evens that depend on r'
        runs = _blocks(kp - 1, m) + [(0, 0, top - m, top - m // 2)]
        if rp <= m:
            label = "n-odd/m-even/r'<=m"
            runs += [(0, 1, top - m // 2, (n - m - 1) // 2),
                     (0, 0, top, (n - 1) // 2)]
        else:
            # r' = m + 1 is a boundary shape: the r'>m pattern would put the odd
            # exponent 2k'm - 1 next to the even exponent 2k'm, so the odd run
            # stops one step early.  The one-larger packing does not exist
            # here (checked exactly for the smallest instances n=13, 19, 21).
            edge = rp == m + 1
            label = "n-odd/m-even/r'=m+1" if edge else "n-odd/m-even/r'>m"
            runs += [(0, 1, top - m // 2, top - 1 if edge else top),
                     (0, 0, (n - m - 1) // 2, (n - 1) // 2)]
    return label, list(_exponents(runs))


# --------------------------------------------------------------------------
# Pattern family B: 2 does not lie in the orbit of 3 mod d.
#
# One piece is a set of cells (j, e); the piece elements are
# {a * b**j * 3**e mod 2d : a in reps, (j, e) in cells} with b = d + 2.
# Conflicts between cells of a single coset form a twisted t x n grid:
# (j, e) ~ (j, e +- 1)   (multiplying by 3),
# (j, e) ~ (j + 1, e)    (multiplying by 2 within a b-power row), and
# (0, e) ~ (t - 1, e + s) (the wrap: 2 * b**(t-1) * 3**s is a unit times 1).
# Cells must be independent in that grid.
# --------------------------------------------------------------------------

def _grid_cells(n: int, t: int, s: int) -> tuple[str, list[tuple[int, int]]]:
    """Choose the cell pattern for family B; returns (case label, cells).

    Row j < t - 1 follows the spec ``even`` or ``odd`` by the parity of j,
    row t - 1 follows ``last``; a spec (parity, split, start, stop) is the
    runs (j, parity, 0, split) and (j, 1 - parity, start, stop).
    """
    label, even, odd, last = _grid_case(n, t, s)
    rows = [odd if j % 2 else even for j in range(t - 1)] + [last]
    return label, _cells([
        run for j, (parity, split, start, stop) in enumerate(rows)
        for run in ((j, parity, 0, split), (j, 1 - parity, start, stop))])


def _grid_case(n: int, t: int, s: int) -> tuple[str, tuple, tuple, tuple]:
    """The case label and the even-row, odd-row and last-row specs.

    ``evens`` and ``odds`` fill a row with one parity; a spec
    (1, 0, start, stop) holds only the evens 2i with start <= i < stop.
    """
    h = n // 2
    evens, odds, empty = (0, h, 0, 0), (1, h, 0, 0), (0, 0, 0, 0)
    if n % 2 == 0:
        if t % 2 == 0 and s % 2 == 0:
            # Full alternating rows; size tn/2 meets the in-class optimum.
            return "n-even/t-even/s-even", evens, odds, odds
        if t % 2 == 1 and s % 2 == 1:
            return "n-even/t-odd/s-odd", evens, odds, evens
        if t % 2 == 1:  # s even
            w = min(s, n - s) // 2
            even, odd = (0, w, w, h - 1), (1, w, w + 1, h)
            if s == h and t < s:
                return "n-even/t-odd/s-even/s=n:2", even, odd, (0, w, w, s - 1)
            if t - 1 < s < h:
                return "n-even/t-odd/s-even/low-window", even, odd, (0, w, w, s)
            if h < s < n - t + 1:
                return ("n-even/t-odd/s-even/high-window", even, odd,
                        (0, w, (s - 2) // 2, h - 1))
            return "n-even/t-odd/s-even/outside", evens, odds, empty
        # t even, s odd.  The special windows below each add one or two
        # elements over the generic "outside" fallback; the high window is
        # valid through s = n - t + 1 inclusive (one larger than the
        # fallback there).
        if s == (n - 2) // 2 and t < h:
            w = n // 4
            odd = (0, w, w, h - 1)
            return "n-even/t-even/s-odd/s=(n-2):2", (1, w, w + 1, h), odd, odd
        if s == h and t < s:
            # An even row containing exponent s would collide across the
            # wrap edge (0, s) ~ (t-1, 2s = 0 mod n), so the even-row
            # pattern sits one step lower (odds below s-1, evens from s+1);
            # every row still holds (n-2)/2 cells.
            w = (s + 1) // 2
            odd = (0, w, w, h - 1)
            return "n-even/t-even/s-odd/s=n:2", (1, w - 1, w, h), odd, odd
        if s == (n + 2) // 2 and t < h:
            # The wrap pairs exponent n-1 of row t-1 with exponent 0 of
            # row 0, which forces the two row patterns to take opposite
            # phases (evens-first on even rows, odds-first on odd rows).
            w = n // 4
            odd = (1, w, w + 1, h)
            return "n-even/t-even/s-odd/s=(n+2):2", (0, w, w, h - 1), odd, odd
        if t - 2 < s < (n - 2) // 2:
            w = (s + 1) // 2
            return ("n-even/t-even/s-odd/low-window", (1, w, w + 1, h),
                    (0, w, w, h - 1), (0, w, w, s + 1))
        if (n + 2) // 2 < s < n - t + 2:
            w = (n - s + 1) // 2
            return ("n-even/t-even/s-odd/high-window", (0, w, w, h - 1),
                    (1, w, w + 1, h), (1, w, (s - 1) // 2, h))
        return "n-even/t-even/s-odd/outside", evens, odds, empty
    # n odd: h = (n - 1) / 2 cells fill a row
    if t % 2 == 1:
        if s == 1:
            return "n-odd/t-odd/s=1", evens, odds, evens
        if s % 2 == 1:
            return "n-odd/t-odd/s-odd>1", evens, odds, (1, 0, (s - 1) // 2, h + 1)
        if s == 0:
            return "n-odd/t-odd/s=0", evens, odds, (1, 0, h, h + 1)
        return "n-odd/t-odd/s-even>0", evens, odds, (0, s // 2, 0, 0)
    # t even
    if s % 2 == 1:
        return "n-odd/t-even/s-odd", odds, evens, (0, (s + 1) // 2, 0, 0)
    if s == 0:
        return "n-odd/t-even/s=0", odds, evens, evens
    return "n-odd/t-even/s-even>0", odds, evens, (1, 0, s // 2, h + 1)


#: Largest class size |V_d| = 2*phi(d) that build_twice_odd's refine
#: step certifies by exact_max(2d) restricted to V_d.
REFINE_VERTEX_CAP = 128


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    """One per-divisor-class part of a constructed set (already scaled
    into the target modulus).  ``certified`` means the piece is known to
    be of maximum size within its divisor class: by the counting bound
    (see :func:`build_divisor_piece`), by exact search, or by the route's
    own size argument."""

    d: int
    case: str
    elements: frozenset[int]
    certified: bool

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class ConstructionReport:
    """A constructed valid set plus its provenance.

    ``verified`` is the verifier's verdict on ``elements`` (always True
    for reports this module returns -- a failed check raises instead).
    ``tight`` means the size is known to equal the true maximum for this
    modulus.  For the eightfold recursion, ``base`` holds the report for
    modulus q/8 whose elements appear in ``elements`` scaled by 8; the
    per-divisor ``pieces`` then cover only the new layer.
    """

    instance: Instance
    elements: frozenset[int]
    pieces: tuple[Piece, ...]
    upper_bound: int
    verified: bool
    tight: bool
    base: Optional["ConstructionReport"] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.elements)

    def to_json_dict(self) -> dict:
        """Stable JSON form (elements ascending, pieces by divisor)."""
        return {
            "q": self.instance.q,
            "k": self.instance.k,
            "r": self.instance.r,
            "lambda": self.instance.lam,
            "size": self.size,
            "upper_bound": self.upper_bound,
            "elements": sorted(self.elements),
            "pieces": [
                {"d": p.d, "case": p.case, "elements": sorted(p.elements)}
                for p in self.pieces
            ],
            "verified": self.verified,
            "tight": self.tight,
        }


def _instance(k: int, r: int) -> Instance:
    """The instance q = 2**k * r, lam = 4, for an odd r coprime to 6."""
    if r < 1 or r % 2 == 0 or math.gcd(r, 6) != 1:
        raise ConstructionError(f"need odd r with gcd(r, 6) = 1, got r={r}")
    return Instance((1 << k) * r, k, r, 4)


def _assemble(instance: Instance, pieces: list[Piece],
              base: Optional[ConstructionReport] = None,
              found: Optional[SearchResult] = None) -> ConstructionReport:
    """Unite the pieces, 8 * base and the witness of the search result
    ``found``, check they are disjoint, verify the union and report it.
    The report is tight when every piece is certified, the base (if any)
    is tight and the search (if any) was exact."""
    q = instance.q
    parts = [p.elements for p in pieces]
    if base is not None:
        parts.append(frozenset([8 * x for x in base.elements]))  # 8x < q
    if found is not None:
        parts.append(frozenset(found.witness))
    elements = frozenset().union(*parts)
    if len(elements) != sum(len(part) for part in parts):
        raise ConstructionError(f"pieces overlap at q={q}")
    verdict = is_b1_set(elements, q)
    if not verdict:
        raise ConstructionError(
            f"assembled set failed verification at q={q}: "
            f"{format_witness(verdict.witness, q)}")
    return ConstructionReport(
        instance=instance,
        elements=elements,
        pieces=tuple(pieces),
        upper_bound=hamming_upper_bound(q, 4),
        verified=True,
        tight=(all(p.certified for p in pieces)
               and (base is None or base.tight)
               and (found is None or found.exact)),
        base=base,
    )


# --------------------------------------------------------------------------
# q = 2r
# --------------------------------------------------------------------------

def build_divisor_piece(d: int, q: int) -> Piece:
    """The explicit pattern piece for divisor d, scaled into modulus q.

    ``q`` must be twice an odd multiple of ``d`` (coprime to 3).  The
    pattern is built at the primitive modulus ``2d`` and carried into
    ``q`` by ``x -> x * (q / 2d)``, which maps valid sets within the unit
    class mod 2d to valid sets within V_d mod q and invalid ones to
    invalid ones.  The piece is not verified here: the assembled set it
    goes into is (see :func:`build_twice_odd`).

    The piece is ``certified`` when it meets the counting bound of its
    class.  Take a member x of V_d mod 2d, the residues prime to d; its
    syndromes e*x are prime to d too, since e <= 4 is.  The even
    syndromes prime to d number phi(d).  An odd x uses two of them (2x
    and 4x), an even x all four, so a valid set with |O| odd and |E|
    even members has 2|O| + 4|E| <= phi(d), and at most phi(d)/2
    members.  The one exception is m = 2, whose period-3 pattern stays
    below the bound: 3**2 == 2 (mod d) forces d | 7 and 3**-2 == 2
    forces d | 17, so m = 2 occurs only at d = 7 and d = 17, whose class
    maxima 2 and 5 are pinned by exhaustive search in the tests.
    """
    r = q // 2
    if q != 2 * r or r % d != 0 or r % 2 == 0 or math.gcd(r, 6) != 1:
        raise ConstructionError(
            f"build_divisor_piece needs q = 2r, d | r, gcd(r,6)=1; "
            f"got d={d}, q={q}")
    ctx = divisor_context(d)
    qd, n, powers = 2 * d, ctx.n, ctx.powers
    if ctx.two_in_three:
        label, exps = _orbit_exponents(n, ctx.s, ctx.m, ctx.k_prime,
                                       ctx.r_prime)
        factors = [powers[e % n] for e in exps]
    else:
        label, cells = _grid_cells(n, ctx.t, ctx.s)
        b_powers = power_list(ctx.b, ctx.t, qd)
        factors = [b_powers[j] * powers[e % n] % qd for j, e in cells]
    # x * r/d < q for x < 2d: scaling neither wraps nor collides.
    scale = r // d
    elements = frozenset([a * f % qd * scale for a in ctx.reps
                          for f in factors])
    expected = len(ctx.reps) * len(factors)
    if len(elements) != expected:
        raise ConstructionError(
            f"pattern for d={d} produced {len(elements)} elements, "
            f"expected {expected} (case {label})")
    return Piece(d=d, case=label, elements=elements,
                 certified=2 * len(elements) == euler_phi(d) or ctx.m == 2)


@lru_cache(maxsize=None)
def _class_optimum(d: int,
                   budget: Optional[Budget]) -> tuple[tuple[int, ...], bool]:
    """The lex-min maximum valid set in V_d at its primitive modulus 2d,
    and whether the search behind it was exact.

    V_d mod 2d, the residues prime to d, is a union of components of the
    conflict graph (e <= 4 is prime to d, so e*x == e'*y (mod 2d) forces
    gcd(x, d) = gcd(y, d)), and the lex-min optimum of a disjoint union
    is the union of its components' ones.  Scaling by r/d is a
    conflict-preserving bijection onto V_d mod 2r, so the memoized result
    serves every multiple r of d.
    """
    result = exact_max(2 * d, budget=budget)
    return (tuple(x for x in result.witness if math.gcd(x, d) == 1),
            result.exact)


def build_twice_odd(r: int, *, refine: bool = True,
                    budget: Optional[Budget] = None) -> ConstructionReport:
    """Largest known valid set for q = 2r (gcd(r,6)=1), divisor by divisor.

    The maximum for q = 2r is the sum over divisors d | r of the in-class
    maxima, so each divisor is handled independently.  With ``refine``
    (the default), any divisor whose pattern is not proven optimal and
    whose class has at most REFINE_VERTEX_CAP residues is checked against
    exact_max(2d) restricted to V_d: that maximum either certifies the
    pattern or replaces it with something larger (that happens: the d=59
    pattern gives 18 where 25 is achievable, so pattern sums alone can
    undershoot -- first at q = 118).

    ``tight`` is True when every divisor class is certified, making the
    total provably maximum.
    """
    instance = _instance(1, r)
    q = instance.q
    pieces: list[Piece] = []
    for d in divisors(r):
        if d == 1:
            # V_1 = {0, r}: r is the only nonzero member and 2r = 0 mod q
            # kills it, so this class is exactly empty.
            pieces.append(Piece(1, "forced-empty", frozenset(), True))
            continue
        piece = build_divisor_piece(d, q)
        if refine and not piece.certified and 2 * euler_phi(d) <= REFINE_VERTEX_CAP:
            witness, exact = _class_optimum(d, budget)
            if len(witness) > piece.size:
                scale = r // d
                piece = Piece(d, piece.case + "+search",
                              frozenset(x * scale % q for x in witness), exact)
            elif exact:
                piece = Piece(d, piece.case, piece.elements, True)
        pieces.append(piece)
    return _assemble(instance, pieces)


# --------------------------------------------------------------------------
# q = 4r and the layer of q = 2^k r, k >= 3: one orbit piece per divisor
# --------------------------------------------------------------------------

def _orbit_layer(q: int, level: int, r: int, d: int) -> tuple[int, frozenset[int]]:
    """The orbit piece of divisor d mod q at M = level * d; returns
    (case, elements).  The level is 2 for q = 4r and 2**(k-2) for
    q = 2**k r, k >= 3.

    Let n be the order of 3 mod M and alpha = a * r/d for each
    representative a of the cosets of <3> mod M.  The piece holds the
    even powers 3**(2i) * alpha and, when n is even, odd powers:

    * case 0, n odd: the even powers for i < n alone;
    * case 1, n even and 3**n == 1 (mod 2M): those for i < n/2 and the
      odd powers 3**(2i+1) * (alpha + level * r) for i < n/2;
    * case 2, otherwise: those for i < n/2 and the odd powers
      3**(2i+1) * alpha for n/2 <= i < n.

    The order n' of 3 mod 2M is n or 2n, told apart by one power: M is
    even, so x == 1 (mod M) gives x**2 == 1 (mod 2M), and n | n' | 2n;
    n' = n exactly when 3**n == 1 (mod 2M).  Each case gives n elements
    per coset, phi(M) in all, which is checked.  Both kinds are built
    from the powers 9**i: 3**(2i+1) * beta is 9**i * (3 * beta mod q).
    """
    modulus = level * d
    n = mult_order(3, modulus)
    if n % 2 == 1:
        case, evens, twist, odd_from = 0, n, 0, 0
    elif pow(3, n, 2 * modulus) == 1:
        case, evens, twist, odd_from = 1, n // 2, level * r, 0
    else:
        case, evens, twist, odd_from = 2, n // 2, 0, n // 2
    odds = n - evens
    nines = power_list(9, max(evens, odd_from + odds), q)
    even_powers, odd_nines = nines[:evens], nines[odd_from:odd_from + odds]
    scale = r // d
    alphas = [a * scale % q for a in coset_reps((3,), modulus)]
    betas = [3 * (alpha + twist) % q for alpha in alphas]
    elements = frozenset([p * alpha % q for alpha in alphas for p in even_powers]
                         + [p * beta % q for beta in betas for p in odd_nines])
    if len(elements) != euler_phi(modulus):
        raise ConstructionError(f"piece of d={d} at q={q} has "
                                f"{len(elements)} elements, not phi({modulus})")
    return case, elements


def build_four_times_odd(r: int) -> ConstructionReport:
    """Maximum valid set for q = 4r (gcd(r,6)=1): size exactly r - 1.

    Each divisor d > 1 of r gives the orbit piece of :func:`_orbit_layer`
    at M = 2d, with phi(2d) = phi(d) elements; summing phi(d) over
    d | r, d > 1 gives r - 1, which meets the counting upper bound
    floor((4r-1)/4) -- so the result is always maximum (tight=True).
    Case 2 cannot occur at M = 2d: for even n, 3**n == 1 mod 4 and mod
    d, hence mod 4d.
    """
    instance = _instance(2, r)
    q = instance.q
    # V_1 = {r, 2r, 3r} mod 4r: each member has a syndrome hitting 0
    # (4r, 2*2r, 4*3r), so this class is exactly empty.
    pieces = [Piece(1, "forced-empty", frozenset(), True)]
    for d in divisors(r)[1:]:
        case, elements = _orbit_layer(q, 2, r, d)
        if case == 2:
            raise ConstructionError(f"3**n != 1 (mod 4d) at M = 2d, d={d}")
        pieces.append(Piece(d, ("orbit-even-powers", "orbit-split-twist")[case],
                            elements, True))
    return _assemble(instance, pieces)


def build_eightfold(k: int, r: int,
                    base: ConstructionReport) -> ConstructionReport:
    """Valid set for q = 2**k r from one for q/8: new layer plus 8*base.

    The new layer holds, for each divisor d of r, the orbit piece of
    :func:`_orbit_layer` at M = 2**(k-2) d, with phi(M) elements; they
    total exactly 2**(k-3) * r.  Every one is odd: alpha = a * r/d is
    odd (a is a unit mod the even M), powers of 3 are odd, and the twist
    level * r is even.  So the layer's syndromes have 2-adic valuation
    at most 2, while scaling the base set by 8 shifts all its syndromes
    to valuation >= 3: the union stays valid for ANY valid base set.
    The layer size being exact, the result is maximum precisely when the
    base is (tight = base.tight).
    """
    if k < 3:
        raise ConstructionError(f"eightfold recursion needs k >= 3, got {k}")
    instance = _instance(k, r)
    q = instance.q
    if base.instance.q * 8 != q:
        raise ConstructionError(
            f"base modulus {base.instance.q} is not q/8 = {q // 8}")
    pieces: list[Piece] = []
    for d in divisors(r):
        case, elements = _orbit_layer(q, 1 << (k - 2), r, d)
        label = ("layer-odd-order", "layer-matched-orders",
                 "layer-doubled-order")[case]
        pieces.append(Piece(d, label, elements, True))
    return _assemble(instance, pieces, base)


# --------------------------------------------------------------------------
# Dispatcher
# --------------------------------------------------------------------------

def construct(q: int, *,
              budget: Optional[Budget] = None) -> ConstructionReport:
    """Best known valid set for modulus q = 2**k r with gcd(r, 6) = 1.

    Routes on the 2-adic valuation k of q:

    * k = 0: no explicit pattern exists for odd moduli -- the exact
      search provides the set (tight when the search completed within
      budget).
    * k = 1: per-divisor patterns, refined by exact search on small classes.
    * k = 2: the exact size-(r-1) construction.
    * k >= 3: the eightfold recursion on construct(q / 8).

    When k = 2 (mod 3) the recursion bottoms out at the exact k = 2
    construction and the total size has the closed form
    (q + 3r - 7) / 7, which is checked internally.
    """
    if q < 1:
        raise ConstructionError(f"need q >= 1, got q={q}")
    instance = Instance.from_q(q)
    if not instance.coprime_to_six:
        raise ConstructionError(
            f"no construction for q={q}: odd part r={instance.r} must "
            f"satisfy gcd(r, 6) = 1")
    k, r = instance.k, instance.r
    if k == 0:
        report = _assemble(instance, [], found=exact_max(q, budget=budget))
    elif k == 1:
        report = build_twice_odd(r, budget=budget)
    elif k == 2:
        report = build_four_times_odd(r)
    else:
        base = construct(q >> 3, budget=budget)
        report = build_eightfold(k, r, base)
    if k % 3 == 2 and k >= 2:
        closed_form = (q + 3 * r - 7) // 7
        if report.size != closed_form:
            raise ConstructionError(
                f"size {report.size} at q={q} disagrees with the exact "
                f"closed form {closed_form}")
    return report
