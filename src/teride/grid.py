"""Candidate retrieval over live probabilistic tuples through slot bitmaps.

One grid keeps what retrieval reads of every stream's live tuples: a live map
from rid to slot, a slot table of summaries, and bitmaps over slots: the live
slots, each stream's live slots, the keyword-bearing slots and per-attribute
postings over the summaries' similarity keys (``DistanceFn.key_unions``).  A
slot freed by eviction is the next one taken, so no bitmap is wider than the
most tuples live at once.  A summary holds at arrival only the query keywords
and the key unions; what the pair bounds read is computed when a pair bound
first reads it (see ``TupleSummary``).  A probe reads the other streams' live
slots in one pass and applies two exact set-level filters only: a
keyword-free probe reads only the keyword-bearing slots, and a tuple must
share keys with the probe on ``need`` of the ``d`` attributes.  That filter
ORs the probe's postings per attribute into a hit bitmap and counts hits per
slot in bit-sliced "hit on at least k attributes" bitmaps; by pigeonhole (the
prefix filter) a survivor has been hit on ``need - (d - i)`` of the first
``i`` attributes, so only the levels that can still reach ``need`` are
updated and an empty required level ends the probe.  Survivors are decoded
from the final bitmap in slot order.  Retrieval reports how many tuples each
filter skipped; ``prune.judge_pair`` starts at the single-option bound.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DuplicateTuple, UnknownTuple
from .impute import ImputedTuple
from .metric import DistanceFn
from .pivot import PivotSet

_TOL = 1e-9
# sum() of floats is compensated from Python 3.12 on, so a sum of larger terms
# may round a few ulps below a sum of smaller ones; a bound on such sums is
# raised by this much before it is compared.
_SUM_SLACK = 1e-12

STAGE_KEYWORD = "keyword"
STAGE_TOKEN = "sim_ub_token"


def token_count_prunes(shared: int, gamma: float) -> bool:
    """True when tuples whose key unions intersect on ``shared`` attributes cannot match.

    Under every distance, values with disjoint keys have similarity exactly 0
    and any attribute contributes at most 1, so ``shared`` bounds the
    similarity of every instance pair.  This is ``not prune.sim_matches(shared
    + _SUM_SLACK, gamma)``, the test that bound sums get.
    """
    return shared + _SUM_SLACK <= gamma + _TOL


class TupleSummary:
    """Index-ready digest of one probabilistic tuple.

    What the grid and the engine read is set at arrival as plain attributes:
    ``rid``, ``stream_id``, ``arrival_time``, ``keywords`` (read off the
    token unions) and ``key_unions`` (``DistanceFn.key_unions``).  What only
    the pair bounds read, ``sizes``, ``box`` and ``pivot_stats``, is
    computed together, in one pass over ``imputed.options`` with the bound
    distance and the main pivots the summary keeps, the first time any of
    them is read; so a tuple that no pair bound reaches never pays for it.
    """

    def __init__(
        self, imputed: ImputedTuple, keywords: frozenset, pivots: PivotSet, dist: DistanceFn
    ):
        base = imputed.base
        self.imputed = imputed
        self.rid = base.rid
        self.stream_id = base.stream_id
        self.arrival_time = base.arrival_time
        self.keywords = keywords  # query keywords present in at least one option
        self.key_unions = dist.key_unions(imputed)
        self._dist = dist.bind()
        self._pivots = pivots
        self._bounds = None  # (sizes, box, pivot_stats) once read

    @property
    def sizes(self) -> list:
        """Per-attr (least, greatest) token-set size over all options."""
        if self._bounds is None:
            self._bound_fields()
        return self._bounds[0]

    @property
    def box(self) -> list:
        """Per-attr (lo, hi) of the main-pivot coordinate over all options."""
        if self._bounds is None:
            self._bound_fields()
        return self._bounds[1]

    @property
    def pivot_stats(self) -> tuple:
        """(expectation, lower bound, upper bound) of the tuple's main-pivot distance:
        each option's coordinate weighed by its probability, and the sums of ``box``."""
        if self._bounds is None:
            self._bound_fields()
        return self._bounds[2]

    def _bound_fields(self) -> None:
        f = self._dist
        sizes, box = [], []
        exp = lb = ub = 0.0
        for opts, plist in zip(self.imputed.options, self._pivots.per_attr):
            main = plist[0]
            lens = [len(v) for v, _ in opts]
            coords = [f(v, main) for v, _ in opts]
            lo, hi = min(coords), max(coords)
            sizes.append((min(lens), max(lens)))
            box.append((lo, hi))
            lb += lo
            ub += hi
            exp += sum(p * c for (_, p), c in zip(opts, coords))
        self._bounds = sizes, box, (exp, lb, ub)


def summarize(
    it: ImputedTuple, pivots: PivotSet, keywords: frozenset, dist: DistanceFn
) -> TupleSummary:
    """Digest one tuple at arrival: its key unions, and the query keywords its token unions hold.

    No distance is computed here; the fields only pair bounds read, the
    main-pivot coordinates among them, are computed on first read.
    """
    kws = frozenset().union(*(keywords & u for u in it.token_unions()))
    return TupleSummary(it, kws, pivots, dist)


@lru_cache(maxsize=16)  # a query has one gamma
def token_need(d: int, gamma: float) -> int:
    """The least number of shared-key attributes, of ``d``, that ``token_count_prunes``
    lets pass at ``gamma``; ``d + 1`` when no count does."""
    return next((n for n in range(d + 1) if not token_count_prunes(n, gamma)), d + 1)


class ErGrid:
    """Store of every stream's live tuples, by slot, that fetches the candidates of a probe."""

    def __init__(self, d: int):
        self.d = d
        self._live: dict = {}  # rid -> slot
        self._slots: list = []  # slot -> TupleSummary, None when free
        self._occupied = 0  # bitmap of the live slots; its zero bits are the free slots
        self._streams: dict = {}  # stream_id -> bitmap of its live slots (0 when it has none)
        self._kw_mask = 0  # bitmap of the keyword-bearing slots
        # per attr: key -> bitmap of the slots whose key union holds it
        self._postings = [{} for _ in range(d)]

    def __len__(self) -> int:
        return len(self._live)

    def insert(self, summary: TupleSummary) -> None:
        rid = summary.rid
        if rid in self._live:
            raise DuplicateTuple(f"tuple {rid} is already registered")
        occupied = self._occupied
        bit = ~occupied & (occupied + 1)  # the lowest free slot
        slot = bit.bit_length() - 1
        for post, keys in zip(self._postings, summary.key_unions):
            for key in keys:
                post[key] = post.get(key, 0) | bit
        if slot == len(self._slots):
            self._slots.append(summary)
        else:
            self._slots[slot] = summary
        self._live[rid] = slot
        self._occupied = occupied | bit
        self._streams[summary.stream_id] = self._streams.get(summary.stream_id, 0) | bit
        if summary.keywords:
            self._kw_mask |= bit

    def evict(self, rid: str) -> TupleSummary:
        slot = self._live.pop(rid, None)
        if slot is None:
            raise UnknownTuple(f"tuple {rid} is not registered")
        summary = self._slots[slot]
        self._slots[slot] = None
        bit = 1 << slot
        for post, keys in zip(self._postings, summary.key_unions):
            for key in keys:
                rest = post[key] ^ bit
                if rest:
                    post[key] = rest
                else:
                    del post[key]
        self._occupied ^= bit
        self._streams[summary.stream_id] ^= bit
        if summary.keywords:
            self._kw_mask ^= bit
        return summary

    def candidates(self, query: TupleSummary, gamma: float):
        """Candidates among the other streams' live tuples for a probe tuple, plus
        how many of those tuples each filter skipped.

        A keyword-free probe can only pair with keyword-bearing tuples, so it
        reads only their slots and keyword-skips the others.  A survivor must
        share keys with the probe on ``need`` of the ``d`` attributes
        (``token_need``); every tuple read whose count falls short is
        token-skipped (see ``_pigeonhole``).  Survivors come in slot order.
        Every other bound is left to ``prune.judge_pair``.
        """
        others = self._occupied & ~self._streams.get(query.stream_id, 0)
        read = others if query.keywords else others & self._kw_mask
        n_read = read.bit_count()
        found = self._pigeonhole(query.key_unions, token_need(self.d, gamma), read)
        survivors = self._summaries(found)
        return survivors, {
            STAGE_KEYWORD: others.bit_count() - n_read,
            STAGE_TOKEN: n_read - len(survivors),
        }

    def _summaries(self, mask: int) -> list:
        """The summaries in the slots of ``mask``, in slot order."""
        slots = self._slots
        out = []
        while mask:
            low = mask & -mask
            out.append(slots[low.bit_length() - 1])
            mask ^= low
        return out

    def _pigeonhole(self, unions: list, need: int, read: int) -> int:
        """Bitmap of the slots in ``read`` whose key unions meet the probe's on
        at least ``need`` attributes.

        Per attribute, the probe's postings are ORed into one hit bitmap, and
        ``at[k]`` keeps the slots hit on at least ``k`` of the attributes read
        so far (bit-sliced counting: ``at[k] |= at[k - 1] & hit``).  After
        ``i`` attributes a survivor has reached ``need - (d - i)`` (the
        pigeonhole, or prefix, filter), so lower levels are no longer updated,
        and once that level is empty no tuple survives.
        """
        d = self.d
        at = [read] + [0] * need  # at[k]: slots hit on at least k attributes read
        for i, (post, keys) in enumerate(zip(self._postings, unions), 1):
            hit = 0
            for key in keys:
                hit |= post.get(key, 0)
            floor = need - d + i  # the level every survivor has reached by now
            if hit:
                for k in range(min(i, need), max(floor, 1) - 1, -1):
                    at[k] |= at[k - 1] & hit
            if floor > 0 and not at[floor]:
                return 0
        return at[need]
