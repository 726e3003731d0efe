"""Jaccard similarity/distance, the d-attribute similarity, and similarity upper bounds.

Two attribute-level bounds are provided: one from token-set size intervals and
one from distance intervals to a shared pivot (triangle inequality).  Both are
computed attribute-wise and summed, with no extra tightening.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyValue
from .model import StreamTuple, TokenSet


def jaccard_sim(a: TokenSet, b: TokenSet) -> float:
    """|a ∩ b| / |a ∪ b| for non-empty token sets."""
    if not a or not b:
        raise EmptyValue("jaccard_sim requires non-empty token sets")
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def jaccard_dist(a: TokenSet, b: TokenSet) -> float:
    return 1.0 - jaccard_sim(a, b)


def _as_number(v: TokenSet):
    if len(v) != 1:
        return None
    try:
        return float(next(iter(v)))
    except ValueError:
        return None


class DistanceFn:
    """Pluggable metric distance over token sets, range [0, 1].

    kind "jaccard" is the production path.  kind "absdiff" treats singleton
    numeric token sets as numbers and uses |x - y| (clamped to [0, 1]); it
    exists to reproduce numeric fixtures and falls back to equality (0/1)
    for non-numeric values.
    """

    JACCARD = "jaccard"
    ABSDIFF = "absdiff"

    def __init__(self, kind: str = JACCARD):
        if kind not in (self.JACCARD, self.ABSDIFF):
            raise ValueError(f"unknown distance kind {kind!r}")
        self.kind = kind
        # never written; perfbench/measure.py reports its length as metric.memo_entries
        self._cache: dict = {}

    def __call__(self, a: TokenSet, b: TokenSet) -> float:
        if self.kind == self.JACCARD:
            return jaccard_dist(a, b)
        x, y = _as_number(a), _as_number(b)
        if x is None or y is None:
            return 0.0 if a == b else 1.0
        return min(abs(x - y), 1.0)

    def bind(self):
        """This distance as a plain function: ``jaccard_dist`` under Jaccard, else itself."""
        return jaccard_dist if self.kind == self.JACCARD else self

    def sim(self, a: TokenSet, b: TokenSet) -> float:
        return 1.0 - self(a, b)

    def __repr__(self):
        return f"DistanceFn({self.kind!r})"


@dataclass(frozen=True)
class SizeInterval:
    """Min/max token-set size over the possible values of one attribute."""

    min_size: int
    max_size: int

    def __post_init__(self):
        if not (1 <= self.min_size <= self.max_size):
            raise ValueError("size interval requires 1 <= min <= max")


@dataclass(frozen=True)
class DistInterval:
    """Lower/upper bound of a pivot distance, within [0, 1]."""

    lb: float
    ub: float

    def __post_init__(self):
        if not (-1e-9 <= self.lb <= self.ub <= 1.0 + 1e-9):
            raise ValueError(f"bad distance interval [{self.lb}, {self.ub}]")


def tuple_sim(r: StreamTuple, r2: StreamTuple, dist: DistanceFn | None = None) -> float:
    """Sum of per-attribute similarities between two complete tuples."""
    r.require_complete()
    r2.require_complete()
    if dist is None:
        return sum(jaccard_sim(a, b) for a, b in zip(r.attrs, r2.attrs))
    return sum(dist.sim(a, b) for a, b in zip(r.attrs, r2.attrs))


def attr_ub_sim_by_size(si_i: SizeInterval, si_j: SizeInterval) -> float:
    if si_i.min_size > si_j.max_size:
        return si_j.max_size / si_i.min_size
    if si_i.max_size < si_j.min_size:
        return si_i.max_size / si_j.min_size
    return 1.0


def ub_sim_by_size(si_i, si_j) -> float:
    """Similarity upper bound from per-attribute token-set size intervals."""
    return sum(attr_ub_sim_by_size(a, b) for a, b in zip(si_i, si_j))


def attr_min_dist(x: DistInterval, y: DistInterval) -> float:
    if x.lb > y.ub:
        return x.lb - y.ub
    if y.lb > x.ub:
        return y.lb - x.ub
    return 0.0


def ub_sim_by_pivot(di_i, di_j) -> float:
    """Similarity upper bound from per-attribute distance intervals to one pivot.

    Equals d minus the summed minimum possible per-attribute distances.
    """
    di_i = list(di_i)
    di_j = list(di_j)
    d = len(di_i)
    return d - sum(attr_min_dist(x, y) for x, y in zip(di_i, di_j))
