"""The problem instance: a modulus q = 2**k * r (r odd) with its
magnitude bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numtheory import two_adic_valuation

__all__ = ["Instance"]


@dataclass(frozen=True)
class Instance:
    """A modulus q split as 2**k * r (r odd) with error-magnitude bound."""

    q: int
    k: int
    r: int
    lam: int = 4

    def __post_init__(self) -> None:
        if self.q < 1 or self.lam < 1:
            raise ValueError(f"need q >= 1 and lam >= 1, got q={self.q}, lam={self.lam}")
        if self.r % 2 == 0 or self.q != (1 << self.k) * self.r:
            raise ValueError(f"q must equal 2**k * r with r odd, "
                             f"got q={self.q}, k={self.k}, r={self.r}")

    @classmethod
    def from_q(cls, q: int, lam: int = 4) -> "Instance":
        k = two_adic_valuation(q)
        return cls(q, k, q >> k, lam)

    @property
    def coprime_to_six(self) -> bool:
        """Whether the odd part avoids the factor 3 (construction paths need this)."""
        return math.gcd(self.r, 6) == 1
