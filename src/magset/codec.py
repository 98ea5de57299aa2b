"""Single asymmetric limited-magnitude error-correcting codes.

A valid set B = {b_0 < ... < b_(m-1)} of residues mod q (see
:mod:`magset.verifier`) acts as the parity row of a length-m code over
Z_q: codewords are the words x with sum(x_i * b_i) = 0 (mod q).  If a
channel can only add a positive error of magnitude at most ``lam`` to at
most one coordinate, the received word's syndrome sum(y_i * b_i) mod q
is either 0 (no error) or e * b_j for exactly one pair (e, j) -- that
is precisely the defining property of a valid set -- so a syndrome table
lookup corrects the error.

The parity row is kept in ascending element order; word positions refer
to that order.  ``make_code`` builds the table in the pass that checks
the set: each product e * b_j mod q maps to (e, j), so one ``dict.get``
gives the magnitude and the position to correct.

Encoding is systematic through a pivot coordinate: the first element of
B (scanning ascending) that is a unit mod q; the message fills the
remaining m-1 positions in order and the pivot is solved to cancel the
parity sum.  The pivot and its inverse mod q are found once per code.

Words may hold any entries ``int()`` accepts; each coordinate is read
as ``int(v) % q``.  The per-word work runs in C builtins.  After a copy,
three passes read the word: ``operator.countOf`` over the entry types
(``int()`` runs only when some entry is not exactly an int), an
``array("Q")`` of the word, which raises OverflowError on an entry below
0 or at least 2**64, and ``max`` against q; the ``% q`` reduction runs
only when an entry lies outside [0, q).  One more pass,
``sum(map(operator.mul, ...))``, forms the syndrome.

``encode`` and ``decode`` check the word and hand its residues to the
cores ``_encode`` and ``_decode``, which work on a list already in
[0, q).  ``simulate_channel`` draws such lists itself and calls the same
cores, so the channel runs the decoder users run without re-reading
every short word it draws.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .verifier import _checked, _integers, format_witness, is_b1_set

__all__ = [
    "LinearCode",
    "ChannelStats",
    "NoUnitPivotError",
    "UnknownSyndromeError",
    "make_code",
    "is_codeword",
    "encode",
    "decode",
    "simulate_channel",
]


class NoUnitPivotError(ValueError):
    """Every parity-row element shares a factor with q: cannot encode."""


class UnknownSyndromeError(ValueError):
    """Received syndrome matches no single error of magnitude <= lam.

    This is a detection event: the word suffered more than one error or
    a magnitude beyond the code's bound.
    """

    def __init__(self, syndrome: int, q: int) -> None:
        super().__init__(
            f"syndrome {syndrome} (mod {q}) matches no correctable error")
        self.syndrome = syndrome


@dataclass(frozen=True)
class LinearCode:
    """A length-m parity-check code over Z_q built from a valid set."""

    q: int
    lam: int
    elements: tuple[int, ...]  # parity row, ascending
    # syndrome -> (magnitude, position); derived from the fields above
    table: dict[int, tuple[int, int]] = field(compare=False, repr=False)

    @property
    def length(self) -> int:
        return len(self.elements)

    @cached_property
    def pivot(self) -> tuple[int, int]:
        """(index, inverse mod q) of the first parity-row element that is
        a unit mod q; raises NoUnitPivotError when there is none."""
        for i, b in enumerate(self.elements):
            if math.gcd(b, self.q) == 1:
                return i, pow(b, -1, self.q)
        raise NoUnitPivotError(
            f"no element of {self.elements} is a unit mod {self.q}")


def make_code(elements: Iterable[int], q: int, lam: int = 4) -> LinearCode:
    """Build the code for a valid set (raises ValueError if not valid).

    The set is valid exactly when its lam*|B| products land on as many
    distinct nonzero keys, so building the table checks the set.  A
    rejected set is swept by `is_b1_set`, whose witness the error names.
    """
    row = _checked(_integers(elements, q, lam), q)
    table = {e * b % q: (e, i)
             for i, b in enumerate(row) for e in range(1, lam + 1)}
    if len(table) != lam * len(row) or 0 in table:
        witness = is_b1_set(row, q, lam).witness
        raise ValueError(f"not a valid set: {format_witness(witness, q)}")
    return LinearCode(q=q, lam=lam, elements=tuple(row), table=table)


def _check_word(code: LinearCode, word: Sequence[int], name: str) -> list[int]:
    if len(word) != code.length:
        raise ValueError(
            f"{name} must have length {code.length}, got {len(word)}")
    return _residues(word, code.q)


def _residues(word: Sequence[int], q: int) -> list[int]:
    """``[int(v) % q for v in word]`` in C-level passes: ``int()`` is
    skipped when every entry is exactly an int, and the reduction runs
    only when the sign test or ``max`` shows a coordinate outside [0, q)."""
    out = list(word)
    if operator.countOf(map(type, out), int) != len(out):
        out = list(map(int, out))
    try:
        array("Q", out)  # OverflowError on an entry < 0 or >= 2**64
        in_range = not out or max(out) < q
    except OverflowError:
        in_range = False
    return out if in_range else [v % q for v in out]


def _parity(code: LinearCode, word: Sequence[int]) -> int:
    return sum(map(operator.mul, word, code.elements)) % code.q


def is_codeword(code: LinearCode, word: Sequence[int]) -> bool:
    """Whether sum(word[i] * b_i) = 0 (mod q)."""
    return _parity(code, _check_word(code, word, "word")) == 0


def pivot_index(code: LinearCode) -> int:
    """Index of the first parity-row element that is a unit mod q."""
    return code.pivot[0]


def encode(code: LinearCode, message: Sequence[int]) -> tuple[int, ...]:
    """Systematic encode: message fills the non-pivot positions in order.

    The pivot coordinate is set to -(sum of the other terms) / b_pivot
    mod q, making the result a codeword.
    """
    code.pivot  # NoUnitPivotError comes before any check of the message
    if len(message) != code.length - 1:
        raise ValueError(
            f"message must have length {code.length - 1}, got {len(message)}")
    return _encode(code, _residues(message, code.q))


def _encode(code: LinearCode, word: list[int]) -> tuple[int, ...]:
    """``encode`` of a message given as a list of residues in [0, q),
    which it fills in place."""
    p, inv = code.pivot
    word.insert(p, 0)
    word[p] = -_parity(code, word) * inv % code.q
    return tuple(word)


def decode(code: LinearCode,
           received: Sequence[int]) -> tuple[tuple[int, ...],
                                             Optional[tuple[int, int]]]:
    """Correct at most one positive error of magnitude <= lam.

    Returns (codeword, None) when the received word is already a
    codeword, else (codeword, (position, magnitude)) after subtracting
    the unique matching error.  Raises UnknownSyndromeError when the
    syndrome matches no single in-range error (detected, not corrected).
    """
    return _decode(code, _check_word(code, received, "received word"))


def _decode(code: LinearCode,
            y: list[int]) -> tuple[tuple[int, ...], Optional[tuple[int, int]]]:
    """``decode`` of a received word given as a list of residues in
    [0, q), which it corrects in place."""
    syndrome = _parity(code, y)
    if syndrome == 0:
        return tuple(y), None
    hit = code.table.get(syndrome)
    if hit is None:
        raise UnknownSyndromeError(syndrome, code.q)
    magnitude, position = hit
    y[position] = (y[position] - magnitude) % code.q
    return tuple(y), (position, magnitude)


@dataclass(frozen=True)
class ChannelStats:
    """Outcome counts of a channel simulation (corrected + detected +
    miscorrected = trials)."""

    trials: int
    corrected: int
    detected: int
    miscorrected: int
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def simulate_channel(code: LinearCode, trials: int, error_rate: float = 1.0,
                     seed: int = 0) -> ChannelStats:
    """Monte-Carlo check of the decoder over the asymmetric channel.

    Each trial draws a uniform random message, encodes it, then with
    probability ``error_rate`` adds a magnitude uniform in [1, lam] at a
    uniform position (mod q), and decodes.  A trial counts as corrected
    when the decoder returns the transmitted codeword, detected when it
    raises UnknownSyndromeError, miscorrected otherwise.

    Deterministic: every trial draws from one generator,
    ``random.Random(seed)``, so equal arguments give equal stats.  The
    counts do not depend on the stream at all: each trial injects at
    most one error of magnitude at most lam, which a valid set always
    corrects, so every trial counts as corrected.

    The draws are ints already in [0, q) and of the code's lengths, so
    the trials call the encode and decode cores ``_encode`` and
    ``_decode`` directly: the same arithmetic as ``encode`` and
    ``decode``, without their length checks and the three passes that
    read each word.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
    corrected = detected = miscorrected = 0
    m = code.length
    rng = random.Random(seed)
    for _ in range(trials):
        message = [rng.randrange(code.q) for _ in range(m - 1)]
        sent = _encode(code, message)
        word = list(sent)
        if rng.random() < error_rate:
            position = rng.randrange(m)
            magnitude = rng.randint(1, code.lam)
            word[position] = (word[position] + magnitude) % code.q
        try:
            decoded, _ = _decode(code, word)
        except UnknownSyndromeError:
            detected += 1
            continue
        if decoded == sent:
            corrected += 1
        else:
            miscorrected += 1
    return ChannelStats(trials=trials, corrected=corrected,
                        detected=detected, miscorrected=miscorrected,
                        seed=seed)
