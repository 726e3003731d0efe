"""Distances over token sets: Jaccard and the pluggable ``DistanceFn``.

Values that share no similarity key (:meth:`DistanceFn.keys`) lie at
distance exactly 1.0, so rule mining, pivot selection, the DR-index and the
grid ask only pairs found through key postings.  One engine construction
asks each such pair of an attribute's distinct values once, into a
:class:`PairTable` that rule mining and pivot selection read and that is
dropped when the construction ends.  The similarity upper bounds built on
the distances live in ``prune``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import repeat

from .errors import EmptyValue
from .model import Repository, TokenSet


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
        """Key -> ascending positions of the values that hold it (:meth:`keys`).
        A :class:`PairTable` finds each value's partners through them."""
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


def _code(top: int) -> str:
    """The narrowest unsigned array typecode that holds the numbers below ``top``."""
    return "B" if top <= 0x100 else "H" if top <= 0x10000 else "I"


class PairTable:
    """One attribute's distinct sample values and the distance of every pair
    of them that shares a similarity key.

    The values are numbered in order of their first sample: ``values`` lists
    them, ``number`` maps each to its number, ``count`` holds each one's
    sample count and ``column`` each sample's value number.  Value u's
    :meth:`row` lists, ascending, the numbers of the values that share a key
    with u (u included), found through the values' key postings
    (:meth:`DistanceFn.postings`), beside the index in ``distances`` of each
    one's distance to u; every other value lies at distance exactly 1.0 from
    u.  Each unordered pair is asked one distance, filed in both values'
    rows, which is exact because both distances are symmetric float for
    float.  The rows are cut from two flat arrays of the narrowest typecode
    that fits, so a pair of an attribute with at most 65,536 values and 256
    distinct distances costs six bytes.
    """

    def __init__(self, column: list, dist: DistanceFn):
        counts = Counter(column)
        self.values = values = list(counts)
        self.count = list(counts.values())
        self.number = number = {v: u for u, v in enumerate(values)}
        code = _code(len(values))
        self.column = array(code, map(number.__getitem__, column))
        postings = dist.postings(values)
        self.start = array("L", [0])  # row u is [start[u], start[u + 1]) of the flat arrays
        self.partner = array(code)
        self.id = array("B")
        id_of: dict = {}  # distance -> its index in self.distances
        # per value, the smaller partners (and their distances' indexes) that
        # filed themselves in its row, dropped once the row is laid out
        below = [array(code) for _ in values]
        below_ids = [array("B") for _ in values]
        for u, a in enumerate(values):
            tails = (p[bisect_left(p, u):] for p in map(postings.__getitem__, dist.keys(a)))
            later = sorted(set().union(*tails))  # partners from u up; later[0] is u
            dists = list(map(dist, repeat(a, len(later)), map(values.__getitem__, later)))
            for dx in set(dists).difference(id_of):
                id_of[dx] = len(id_of)
            ids = list(map(id_of.__getitem__, dists))
            wide = _code(len(id_of))
            if wide != self.id.typecode:
                self.id = array(wide, self.id)
                below_ids = [row if row is None else array(wide, row) for row in below_ids]
            self.partner.extend(below[u])
            self.partner.extend(later)
            self.id.extend(below_ids[u])
            self.id.extend(ids)
            self.start.append(len(self.partner))
            below[u] = below_ids[u] = None
            for w, i in zip(later[1:], ids[1:]):
                below[w].append(u)
                below_ids[w].append(i)
        self.distances = list(id_of)

    @classmethod
    def of(cls, repo: Repository, attr: int, dist: DistanceFn) -> PairTable:
        """The table of attribute ``attr`` of the repository's samples."""
        return cls([s.attrs[attr] for s in repo.samples], dist)

    def row(self, u: int) -> tuple:
        """(ascending numbers of the values that share a key with value u, the
        indexes of their distances to u in ``distances``)."""
        lo, hi = self.start[u], self.start[u + 1]
        return self.partner[lo:hi], self.id[lo:hi]


class PairTables:
    """Per attribute of a repository, its :class:`PairTable`, built when first
    read, so its cost lands in the stage that reads it first.  One engine
    construction makes one and drops it when it ends; nothing is kept on the
    repository."""

    def __init__(self, repo: Repository, dist: DistanceFn):
        self.repo = repo
        self.dist = dist
        self._tables: list = [None] * repo.d

    def __getitem__(self, attr: int) -> PairTable:
        table = self._tables[attr]
        if table is None:
            table = self._tables[attr] = PairTable.of(self.repo, attr, self.dist)
        return table


def _absdiff_key(v: TokenSet):
    """The one similarity key of v under absdiff: v, or ``frozenset()`` for a finite number."""
    return frozenset() if as_number(v) is not None else v
