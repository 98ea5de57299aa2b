"""Maximal sets for single asymmetric limited-magnitude error correction.

A set B of nonzero residues mod q is *valid* (for magnitude bound
``lam``) when all products ``e * b mod q`` with ``1 <= e <= lam``,
``b in B`` are distinct and nonzero.  Such sets are exactly the parity
rows of length-``|B|`` codes over Z_q that correct one asymmetric error
of magnitude at most ``lam``; bigger sets mean longer codes.

The package constructs maximum-size valid sets for ``lam = 4`` over
moduli ``2^k * r`` with ``gcd(r, 6) = 1``, certifies them against an
independent exhaustive search, and exposes the resulting codes:

- :func:`construct` -- pattern-based construction with a per-divisor
  provenance report,
- :func:`exact_max` -- exhaustive branch-and-bound oracle,
- :func:`is_b1_set` -- the validity check (with collision witness),
- :func:`make_code` / :func:`encode` / :func:`decode` -- the codes,
- ``magset`` CLI -- all of the above from the command line.
"""

from .codec import (ChannelStats, LinearCode, NoUnitPivotError,
                    UnknownSyndromeError, decode, encode, is_codeword,
                    make_code, pivot_index, simulate_channel)
from .constructions import (ConstructionError, ConstructionReport, Piece,
                            build_divisor_piece, build_eightfold,
                            build_four_times_odd, build_twice_odd, construct,
                            divisor_context, hamming_upper_bound)
from .numtheory import coset_reps, divisors, euler_phi, mult_order
from .residues import Instance
from .search import (Budget, SearchCache, SearchResult, conflict_graph,
                     exact_max)
from .verifier import (Verdict, format_witness, is_b1_set,
                       is_b1_set_reference)

__version__ = "0.1.0"

__all__ = [
    "Budget", "ChannelStats", "ConstructionError", "ConstructionReport",
    "Instance", "LinearCode", "NoUnitPivotError", "Piece", "SearchCache",
    "SearchResult", "UnknownSyndromeError", "Verdict",
    "build_divisor_piece", "build_eightfold", "build_four_times_odd",
    "build_twice_odd", "conflict_graph", "construct",
    "coset_reps", "decode", "divisor_context", "divisors", "encode",
    "euler_phi", "exact_max", "format_witness", "hamming_upper_bound",
    "is_b1_set",
    "is_b1_set_reference", "is_codeword", "make_code", "mult_order",
    "pivot_index", "simulate_channel",
    "__version__",
]
