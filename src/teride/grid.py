"""Candidate retrieval over live probabilistic tuples through token postings.

A grid keeps only what retrieval reads: a live map from rid to summary, the
keyword-bearing rids and, under Jaccard, per-attribute token postings.  A
summary holds at arrival only the main-pivot coordinates and the query
keywords (see ``TupleSummary``).
Retrieval applies two exact set-level filters only: a keyword-free probe reads
only the keyword-bearing tuples, and under Jaccard a tuple must share tokens
with the probe on ``need`` of the ``d`` attributes.  That filter is a
pigeonhole (prefix) filter over per-attribute token postings: a survivor hits
at least one of any ``d - need + 1`` attributes, so only the postings of the
``d - need + 1`` attributes with the fewest posted tuples are gathered, and
the gathered tuples' other attributes are checked set against set.  Retrieval
reports how many tuples each filter skipped; every other bound runs pair by
pair in ``prune.judge_pair``.
The grid cells over [0, 1]^d, each holding the tuples whose main-pivot
rectangle intersects it, are derived from the live map when read; no step
reads them.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .errors import DuplicateTuple, UnknownTuple
from .impute import ImputedTuple
from .metric import DistanceFn, DistInterval, SizeInterval
from .pivot import PivotSet

CELL_WIDTH = 0.1
_TOL = 1e-9
# sum() of floats is compensated from Python 3.12 on, so a sum of larger terms
# may round a few ulps below a sum of smaller ones; a bound on such sums is
# raised by this much before it is compared.
_SUM_SLACK = 1e-12

STAGE_KEYWORD = "keyword"
STAGE_TOKEN = "sim_ub_token"


def token_count_prunes(shared: int, gamma: float) -> bool:
    """True when tuples whose token unions intersect on ``shared`` attributes cannot match.

    Under Jaccard, disjoint non-empty token sets have similarity exactly 0 and
    any attribute contributes at most 1, so ``shared`` bounds the similarity
    of every instance pair.  This is ``not prune.sim_matches(shared +
    _SUM_SLACK, gamma)``, the test that bound sums get.
    """
    return shared + _SUM_SLACK <= gamma + _TOL


class TupleSummary:
    """Index-ready digest of one probabilistic tuple.

    What the grid reads is computed at arrival: ``box``, ``option_coords``
    and ``keywords``.  What only the pair bounds read (``aux``, ``sizes``,
    ``dist_intervals`` and ``pivot_stats``) is computed the first time it is
    read and kept, so a tuple that no pair bound reaches never pays for it.
    """

    def __init__(
        self,
        imputed: ImputedTuple,
        box: list,
        keywords: frozenset,
        option_coords: list,
        pivots: PivotSet,
        dist: DistanceFn,
    ):
        self.imputed = imputed
        self.box = box  # per-attr (lo, hi) of the main-pivot coordinate over all options
        self.keywords = keywords  # query keywords present in at least one option
        self.option_coords = option_coords  # per-attr main-pivot coordinate per option
        self._pivots = pivots
        self._dist = dist

    @property
    def rid(self) -> str:
        return self.imputed.rid

    @property
    def stream_id(self) -> int:
        return self.imputed.stream_id

    @cached_property
    def aux(self) -> dict:
        """(attr, pivot_idx) -> (lo, hi) of the distance over all options, pivot_idx >= 1."""
        f = self._dist.bind()
        out = {}
        for x, plist in enumerate(self._pivots.per_attr):
            values = [v for v, _ in self.imputed.attr_options(x)]
            for a in range(1, len(plist)):
                col = [f(v, plist[a]) for v in values]
                out[(x, a)] = (min(col), max(col))
        return out

    @cached_property
    def sizes(self) -> list:
        """Per-attr SizeInterval of the token-set size over all options."""
        out = []
        for x in range(len(self.box)):
            lens = [len(v) for v, _ in self.imputed.attr_options(x)]
            out.append(SizeInterval(min(lens), max(lens)))
        return out

    @cached_property
    def dist_intervals(self) -> list:
        """Per-attr DistInterval of ``box``."""
        return [DistInterval(lo, hi) for lo, hi in self.box]

    @cached_property
    def pivot_stats(self) -> tuple:
        """The module-level :func:`pivot_stats` of this summary."""
        return pivot_stats(self)


def pivot_stats(summary: TupleSummary) -> tuple:
    """(expectation, lower bound, upper bound) of the tuple's main-pivot distance.

    The expectation weighs each candidate value's main-pivot distance by its
    existence probability; present attributes contribute a fixed distance.
    Every summary keeps the result as ``summary.pivot_stats``.
    """
    it = summary.imputed
    exp = lb = ub = 0.0
    for x, (lo, hi) in enumerate(summary.box):
        lb += lo
        ub += hi
        exp += sum(
            p * c for (_, p), c in zip(it.attr_options(x), summary.option_coords[x])
        )
    return exp, lb, ub


def summarize(
    it: ImputedTuple, pivots: PivotSet, keywords: frozenset, dist: DistanceFn
) -> TupleSummary:
    """Digest one tuple at arrival: each option's main-pivot coordinate, and the keywords.

    The fields only pair bounds read are left to be computed on first read.
    """
    f = dist.bind()
    box = []
    kws: set = set()
    option_coords = []
    attrs = it.base.attrs
    for x, plist in enumerate(pivots.per_attr):
        main = plist[0]
        v = attrs[x]
        if v is not None:
            c = f(v, main)
            option_coords.append([c])
            box.append((c, c))
            kws.update(keywords & v)
            continue
        options = it.per_attr_candidates[x]
        coords = [f(v, main) for v, _ in options]
        option_coords.append(coords)
        box.append((min(coords), max(coords)))
        for v, _ in options:
            kws.update(keywords & v)
    return TupleSummary(
        imputed=it,
        box=box,
        keywords=frozenset(kws),
        option_coords=option_coords,
        pivots=pivots,
        dist=dist,
    )


def _cell_span(lo: float, hi: float) -> range:
    n_cells = int(round(1.0 / CELL_WIDTH))
    c_lo = max(0, min(int(lo / CELL_WIDTH + _TOL), n_cells - 1))
    c_hi = max(0, min(int(hi / CELL_WIDTH + _TOL), n_cells - 1))
    return range(c_lo, c_hi + 1)


class _Cell:
    """One grid cell of the read-only cell view: its members, and covering aggregates.

    ``keywords``, ``box``, ``sizes`` and ``aux`` are the exact covers (union,
    or min/max per attribute or aux key) over the members, computed when read.
    """

    __slots__ = ("members",)

    def __init__(self):
        self.members: dict = {}  # rid -> TupleSummary

    @property
    def keywords(self) -> frozenset:
        return frozenset().union(*(s.keywords for s in self.members.values()))

    @property
    def box(self) -> list:
        """Covering (lo, hi) per attribute of the members' main coordinates."""
        boxes = [s.box for s in self.members.values()]
        return [(min(lo for lo, _ in col), max(hi for _, hi in col)) for col in zip(*boxes)]

    @property
    def sizes(self) -> list:
        """Covering (min, max) token-set size per attribute."""
        sizes = [s.sizes for s in self.members.values()]
        return [
            (min(si.min_size for si in col), max(si.max_size for si in col))
            for col in zip(*sizes)
        ]

    @property
    def aux(self) -> dict:
        """Covering (lo, hi) per auxiliary key held by any member."""
        out: dict = {}
        for s in self.members.values():
            for key, (lo, hi) in s.aux.items():
                c = out.get(key)
                out[key] = (lo, hi) if c is None else (min(c[0], lo), max(c[1], hi))
        return out


def _post(postings: list, rid: str, unions: list) -> None:
    for post, tokens in zip(postings, unions):
        for tok in tokens:
            rids = post.get(tok)
            if rids is None:
                post[tok] = {rid}
            else:
                rids.add(rid)


def _unpost(postings: list, rid: str, unions: list) -> None:
    for post, tokens in zip(postings, unions):
        for tok in tokens:
            rids = post[tok]
            if len(rids) == 1:
                del post[tok]
            else:
                rids.remove(rid)


class ErGrid:
    """Per-stream store of live tuples that fetches the candidates of a probe.

    Only under Jaccard (``dist``, default ``DistanceFn()``) does it keep token
    postings.  Its cells are read-only views (see ``_cell_view``).
    """

    def __init__(self, d: int, dist: DistanceFn | None = None):
        self.d = d
        self._live: dict = {}  # rid -> TupleSummary
        self._kw_rids: set = set()
        # per attr: token -> rids whose token union holds it; the same over
        # keyword-bearing rids only.  None when the distance is not Jaccard.
        self._postings = self._kw_postings = None
        if dist is None or dist.kind == DistanceFn.JACCARD:
            self._postings = [{} for _ in range(d)]
            self._kw_postings = [{} for _ in range(d)]
        self._view = None  # see _cell_view

    def __len__(self) -> int:
        return len(self._live)

    def insert(self, summary: TupleSummary) -> None:
        rid = summary.rid
        if rid in self._live:
            raise DuplicateTuple(f"tuple {rid} is already registered")
        if self._postings is not None:
            unions = summary.imputed.token_unions()
            _post(self._postings, rid, unions)
            if summary.keywords:
                _post(self._kw_postings, rid, unions)
        self._live[rid] = summary
        if summary.keywords:
            self._kw_rids.add(rid)

    def evict(self, rid: str) -> TupleSummary:
        summary = self._live.pop(rid, None)
        if summary is None:
            raise UnknownTuple(f"tuple {rid} is not registered")
        if self._postings is not None:
            unions = summary.imputed.token_unions()
            _unpost(self._postings, rid, unions)
            if summary.keywords:
                _unpost(self._kw_postings, rid, unions)
        self._kw_rids.discard(rid)
        return summary

    def candidates(self, query: TupleSummary, gamma: float, keywords: frozenset):
        """Candidate summaries for a probe tuple, plus how many tuples each filter skipped.

        A keyword-free probe can only pair with keyword-bearing tuples, so it
        reads the keyword-restricted postings and keyword-skips every other
        live tuple.  With postings, a survivor must share tokens with the
        probe on ``need`` of the ``d`` attributes (the least count that passes
        ``token_count_prunes``), so by pigeonhole it hits at least one of any
        ``d - need + 1`` of them.  Rids are collected only from the probe's
        postings on the ``d - need + 1`` attributes with the fewest posted
        rids; each of them has its other attributes checked with
        ``isdisjoint`` against the probe's token unions, and every live tuple
        whose count falls short of ``need`` is token-skipped.  Every other
        bound is left to ``prune.judge_pair``.
        """
        if query.keywords:
            postings, live = self._postings, self._live
            skipped_kw = 0
        else:
            postings, live = self._kw_postings, self._kw_rids
            skipped_kw = len(self._live) - len(live)
        if postings is None:
            survivors = [self._live[rid] for rid in live]
        else:
            survivors = self._pigeonhole(postings, query.imputed.token_unions(), gamma)
        return survivors, {STAGE_KEYWORD: skipped_kw, STAGE_TOKEN: len(live) - len(survivors)}

    def _pigeonhole(self, postings: list, unions: list, gamma: float) -> list:
        """Summaries of the tuples whose token unions meet the probe's on enough attributes."""
        d = self.d
        need = next((n for n in range(d + 1) if not token_count_prunes(n, gamma)), d + 1)
        spare = d - need  # attributes a survivor may miss
        posted = []  # per attribute, the rids the probe's tokens post there, with repeats
        empty = 0
        for post, tokens in zip(postings, unions):
            n = sum(map(len, filter(None, map(post.get, tokens))))
            if not n:
                empty += 1
                if empty > spare:  # every survivor would have to hit one of these
                    return []
            posted.append(n)
        order = sorted(range(d), key=posted.__getitem__)
        hits: dict = {}  # rid -> how many of the spare + 1 attributes read it hits
        for x in order[: spare + 1]:
            for rid in set().union(*filter(None, map(postings[x].get, unions[x]))):
                hits[rid] = hits.get(rid, 0) + 1
        rest = order[spare + 1 :]
        live = self._live
        survivors = []
        for rid, n in hits.items():
            summary = live[rid]
            missed = spare + 1 - n
            if rest:
                other = summary.imputed.token_unions()
                for x in rest:
                    if unions[x].isdisjoint(other[x]):
                        missed += 1
                        if missed > spare:
                            break
            if missed <= spare:
                survivors.append(summary)
        return survivors

    # -- the cell view, derived from the live map when read --

    _rids = property(lambda self: self._live.keys())
    _tuples = property(lambda self: self._cell_view()[1])  # rid -> (summary, its cell keys)
    _cells = property(lambda self: self._cell_view()[2])  # cell key -> _Cell of the tuples in it
    _kw_cells = property(lambda self: self._cell_view()[3])  # the same, keyword-bearing tuples only

    def _cell_view(self) -> tuple:
        """(live summaries, ``_tuples``, ``_cells``, ``_kw_cells``), kept while the
        live summaries, compared by identity, are the ones it was derived from."""
        summaries = list(self._live.values())
        view = self._view
        if view is None or view[0] != summaries:
            tuples, cells, kw_cells = {}, {}, {}
            for s in summaries:
                keys = list(product(*(_cell_span(lo, hi) for lo, hi in s.box)))
                tuples[s.rid] = (s, keys)
                for key in keys:
                    cells.setdefault(key, _Cell()).members[s.rid] = s
                    if s.keywords:
                        kw_cells.setdefault(key, _Cell()).members[s.rid] = s
            view = self._view = (summaries, tuples, cells, kw_cells)
        return view

    def snapshot(self) -> dict:
        """Structural view for invariant checking: cell keys, members, aggregates."""
        return {
            key: {
                "members": sorted(cell.members),
                "keywords": sorted(cell.keywords),
                "box": list(cell.box),
                "sizes": list(cell.sizes),
            }
            for key, cell in self._cells.items()
        }
