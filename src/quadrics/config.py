"""Shared precision policy for numeric predicates, and the analysis scope.

Predicates that cannot be decided exactly escalate working precision by
doubling until the cap; what is still ambiguous then is reported as
undecided, never silently classified.

An analysis scope (one per CLI command) computes each derived object of
the exact side, such as an intersection or a quadric form, at most once.
Outside a scope every call computes afresh, so library use keeps no state.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, TypeVar

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


T = TypeVar("T")

_SCOPE: ContextVar[Optional[dict]] = ContextVar("analysis_scope", default=None)


@contextmanager
def analysis_scope():
    """Memoize scoped() values until the block exits; joins an open scope."""
    token = _SCOPE.set({} if _SCOPE.get() is None else _SCOPE.get())
    try:
        yield
    finally:
        _SCOPE.reset(token)


def scoped(key: Hashable, compute: Callable[[], T]) -> T:
    """compute(), stored under key inside an analysis scope.  An exception
    from compute() is not stored; a caller that wants an error memoized
    returns it instead."""
    memo = _SCOPE.get()
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def scoped_many(keys: Sequence[Hashable],
                compute: Callable[[List[Hashable]], Sequence[T]]) -> List[T]:
    """[scoped(key, ...) for key in keys], with every distinct key not yet
    stored computed by one compute(missing) call, whose i-th value belongs
    to missing[i] (keys in first-seen order).  Outside a scope nothing is
    kept; an exception from compute() stores none of the missing keys."""
    memo = _SCOPE.get()
    store = {} if memo is None else memo
    missing = list(dict.fromkeys(key for key in keys if key not in store))
    if missing:
        store.update(zip(missing, compute(missing)))
    return [store[key] for key in keys]
