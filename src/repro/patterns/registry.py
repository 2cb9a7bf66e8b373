"""Strategy selection: problem -> (schedule, strategy).

Implements the framework's dispatch (paper Sec. III): classify the
contributing set via Table I, reduce symmetric patterns, and optionally
re-schedule inverted-L problems as horizontal case-1, which the paper's
Sec. V-B experiment shows is the better choice (the default here; Fig. 8's
benchmark flips the flag to reproduce that experiment).
"""

from __future__ import annotations

from ..core.classification import classify
from ..core.problem import LDDPProblem
from ..errors import ClassificationError
from ..lru import LRU, CacheInfo
from ..types import Pattern
from .antidiagonal import AntiDiagonalStrategy
from .base import PatternStrategy
from .horizontal import HorizontalStrategy
from .inverted_l import InvertedLStrategy
from .knight_move import KnightMoveStrategy
from .minverted_l import MInvertedLStrategy
from .vertical import VerticalStrategy

__all__ = [
    "strategy_for",
    "strategy_class_for",
    "strategy_cache_info",
    "clear_strategy_cache",
]

_CLASSES: dict[Pattern, type[PatternStrategy]] = {
    Pattern.ANTI_DIAGONAL: AntiDiagonalStrategy,
    Pattern.HORIZONTAL: HorizontalStrategy,
    Pattern.VERTICAL: VerticalStrategy,
    Pattern.INVERTED_L: InvertedLStrategy,
    Pattern.MINVERTED_L: MInvertedLStrategy,
    Pattern.KNIGHT_MOVE: KnightMoveStrategy,
}


def strategy_class_for(pattern: Pattern) -> type[PatternStrategy]:
    try:
        return _CLASSES[pattern]
    except KeyError:  # pragma: no cover - enum is closed
        raise ClassificationError(f"no strategy for {pattern!r}") from None


# -- strategy cache ------------------------------------------------------------
#
# Every executor re-derives the strategy for its problem on every solve; the
# classification + schedule construction is pure geometry, so cache it. The
# key is the problem's *identity* plus everything the result depends on:
# contributing mask and computed shape (so a recycled id() after garbage
# collection can only ever collide with an identically-shaped problem, for
# which the cached strategy is still correct) and the two override flags.

_STRATEGY_CACHE = LRU(128)


def strategy_cache_info() -> CacheInfo:
    """Hit/miss/size counters of the strategy cache (for tests/diagnostics)."""
    return _STRATEGY_CACHE.info()


def clear_strategy_cache() -> None:
    """Drop all cached strategies and reset the counters."""
    global _STRATEGY_CACHE
    _STRATEGY_CACHE = LRU(_STRATEGY_CACHE.capacity)


def strategy_for(
    problem: LDDPProblem,
    pattern_override: Pattern | None = None,
    inverted_l_as_horizontal: bool = True,
) -> PatternStrategy:
    """Build the execution strategy (and its schedule) for a problem.

    Results are cached per (problem identity, override options) — repeated
    solves of one problem reuse the same strategy and schedule objects (both
    are immutable geometry).

    Parameters
    ----------
    pattern_override:
        Force a specific (dependency-compatible) pattern — used by the
        Fig. 8 experiment to run an inverted-L problem under its native
        ring schedule.
    inverted_l_as_horizontal:
        When True (default, per paper Sec. V-B), problems classified as
        inverted-L / mInverted-L execute under the horizontal pattern:
        same iteration count, uniform widths, coalescing-friendly rows.
    """
    key = (
        id(problem), problem.contributing.mask, problem.computed_shape,
        pattern_override, inverted_l_as_horizontal,
    )
    strategy = _STRATEGY_CACHE.get(key)
    if strategy is not None:
        return strategy

    pattern = pattern_override or classify(problem.contributing)
    if pattern_override is None and inverted_l_as_horizontal:
        if pattern in (Pattern.INVERTED_L, Pattern.MINVERTED_L):
            pattern = Pattern.HORIZONTAL
    schedule = problem.schedule(pattern)
    strategy = strategy_class_for(pattern)(schedule, problem.contributing)
    _STRATEGY_CACHE.put(key, strategy)
    return strategy
