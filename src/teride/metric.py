"""Distances over token sets: Jaccard and the pluggable ``DistanceFn``.

Values that share no similarity key (:meth:`DistanceFn.keys`) lie at
distance exactly 1.0, so rule mining, pivot selection, the DR-index and the
grid ask only pairs found through key postings.  The similarity upper bounds
built on the distances live in ``prune``.
"""

from __future__ import annotations

import math

from .errors import EmptyValue
from .model import TokenSet


def jaccard_sim(a: TokenSet, b: TokenSet) -> float:
    """|a ∩ b| / |a ∪ b| for non-empty token sets."""
    if not a or not b:
        raise EmptyValue("jaccard_sim requires non-empty token sets")
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def jaccard_dist(a: TokenSet, b: TokenSet) -> float:
    return 1.0 - jaccard_sim(a, b)


def as_number(v: TokenSet):
    """The one token of ``v`` as a finite number, else None."""
    if len(v) != 1:
        return None
    try:
        x = float(next(iter(v)))
    except ValueError:
        return None
    return x if math.isfinite(x) else None


class DistanceFn:
    """Pluggable metric distance over token sets, range [0, 1].

    kind "jaccard" is the production path.  kind "absdiff" treats singleton
    token sets of a finite number as numbers and uses |x - y| (clamped to
    [0, 1]); it exists to reproduce numeric fixtures and falls back to
    equality (0/1) for every other value, ``nan`` and ``inf`` included.
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
        x, y = as_number(a), as_number(b)
        if x is None or y is None:
            return 0.0 if a == b else 1.0
        return min(abs(x - y), 1.0)

    def bind(self):
        """This distance as a plain function: ``jaccard_dist`` under Jaccard, else itself."""
        return jaccard_dist if self.kind == self.JACCARD else self

    def sim(self, a: TokenSet, b: TokenSet) -> float:
        return 1.0 - self(a, b)

    def keys(self, v: TokenSet) -> frozenset:
        """The similarity keys of v; values that share none lie at distance exactly 1.0.
        Under Jaccard they are v's tokens; under absdiff v is its own key, but
        every finite number's is ``frozenset()``."""
        if self.kind == self.JACCARD:
            return v
        return frozenset((_absdiff_key(v),))

    def postings(self, values) -> dict:
        """Key -> ascending positions of the values that hold it (:meth:`keys`)."""
        postings: dict = {}
        for i, v in enumerate(values):
            for key in self.keys(v):
                postings.setdefault(key, []).append(i)
        return postings

    def key_unions(self, imputed) -> list:
        """Per attribute, the union of an ``ImputedTuple``'s option keys (:meth:`keys`);
        under Jaccard these are its token unions (``imputed.token_unions()``)."""
        if self.kind == self.JACCARD:
            return imputed.token_unions()
        return [frozenset(_absdiff_key(v) for v, _ in opts) for opts in imputed.options]

    def __repr__(self):
        return f"DistanceFn({self.kind!r})"


def _absdiff_key(v: TokenSet):
    """The one similarity key of v under absdiff: v, or ``frozenset()`` for a finite number."""
    return frozenset() if as_number(v) is not None else v
