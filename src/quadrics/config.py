"""Shared precision policy for numeric predicates.

Predicates that cannot be decided exactly escalate working precision by
doubling until the cap; what is still ambiguous then is reported as
undecided, never silently classified.
"""

from __future__ import annotations

from dataclasses import dataclass

# the ladder starts no lower than double precision
MIN_BITS = 53


@dataclass(frozen=True)
class PrecisionConfig:
    start_bits: int = 256
    cap_bits: int = 4096

    def __post_init__(self):
        if not MIN_BITS <= self.start_bits <= self.cap_bits:
            raise ValueError(
                f"precision must satisfy {MIN_BITS} <= start bits <= cap bits, "
                f"got start {self.start_bits}, cap {self.cap_bits}")

    def ladder(self):
        bits = self.start_bits
        while bits <= self.cap_bits:
            yield bits
            bits *= 2


DEFAULT_PRECISION = PrecisionConfig()
