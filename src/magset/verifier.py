"""Ground truth for the whole package: decide whether a set of residues
has all products e*b mod q (1 <= e <= lam) pairwise distinct and nonzero,
and build the syndrome lookup table that property guarantees.

Two independent implementations are provided; `is_b1_set` (a sweep that
marks each product in a byte table of q flags) is the default and
`is_b1_set_reference` (hash map) exists so tests can cross-check them
against each other.  `build_syndrome_table` builds its table in one pass
over the products and falls back to the sweep only to explain a
rejection.  After sorting the input, `is_b1_set` runs in O(q + lam*|B|)
time and the two hash-map passes in O(lam*|B|).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Union

__all__ = [
    "Verdict",
    "SyndromeTable",
    "is_b1_set",
    "is_b1_set_reference",
    "build_syndrome_table",
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
    elems = sorted(elements)
    for b in elems:
        if not 1 <= b <= q - 1:
            raise ValueError(f"element {b} outside [1, {q - 1}]")
    if any(a == b for a, b in zip(elems, elems[1:])):
        raise ValueError("elements must be distinct")
    return elems


def is_b1_set(elements: Iterable[int], q: int, lam: int = 4) -> Verdict:
    """Byte-table sweep in O(q + lam*|B|): mark each product e*b mod q.

    The table starts with residue 0 marked, so one test catches both a
    zero product and a repeat.  The witness names the first failing
    (e, b) in ascending-b, ascending-e order.
    """
    elems = _checked(elements, q, lam)
    seen = bytearray(q)
    seen[0] = 1
    for b in elems:
        for e in range(1, lam + 1):
            s = e * b % q
            if seen[s]:
                return Verdict(False, _witness(elems, q, lam, b, e))
            seen[s] = 1
    return Verdict(True, None)


def _witness(elems: list[int], q: int, lam: int, b_bad: int, e_bad: int) -> Witness:
    s_bad = e_bad * b_bad % q
    if s_bad == 0:
        return (e_bad, b_bad)
    for b in elems:
        for e in range(1, lam + 1):
            if (e, b) == (e_bad, b_bad):
                continue
            if e * b % q == s_bad:
                return (e, b, e_bad, b_bad)
    raise AssertionError("collision vanished on rewalk")  # pragma: no cover


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


@dataclass(frozen=True)
class SyndromeTable:
    """Injective map syndrome -> (magnitude e, element b), size lam * |B|."""

    q: int
    lam: int
    entries: dict[int, tuple[int, int]]

    def lookup(self, syndrome: int) -> Optional[tuple[int, int]]:
        return self.entries.get(syndrome % self.q)


def build_syndrome_table(elements: Iterable[int], q: int, lam: int = 4) -> SyndromeTable:
    """Build the syndrome table in one O(lam*|B|) pass over the products.

    The set is valid exactly when the lam*|B| products land on as many
    distinct nonzero keys.  A rejected set is swept once more by
    `is_b1_set`, so the ValueError names the same witness it reports.
    """
    elems = _checked(elements, q, lam)
    entries = {e * b % q: (e, b) for b in elems for e in range(1, lam + 1)}
    if len(entries) != lam * len(elems) or 0 in entries:
        witness = is_b1_set(elems, q, lam).witness
        raise ValueError(f"not a valid set: {format_witness(witness, q)}")
    return SyndromeTable(q, lam, entries)


def format_witness(witness: Optional[Witness], q: int) -> str:
    """Human-readable collision, e.g. '2*1 == 1*2 (mod 9)'."""
    if witness is None:
        return "no collision"
    if len(witness) == 2:
        e, b = witness
        return f"{e}*{b} == 0 (mod {q})"
    e1, b1, e2, b2 = witness
    return f"{e1}*{b1} == {e2}*{b2} (mod {q})"
