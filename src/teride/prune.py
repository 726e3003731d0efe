"""Pair-level pruning cascade and exact match-probability computation.

The fetcher filters first, by topic keyword and shared-key count.  On each
pair left, :func:`judge_pair` runs the single-option similarity bound, then
the similarity upper bounds from token sizes and pivot distances, the
Paley-Zygmund probability upper bound, and finally the instance-level scan.
Every bound overestimates, so no qualifying pair is lost.  The single-option
bound sums :func:`single_option_terms`, which read only the two tuples'
``options`` and key unions, one distance per attribute on which both hold
one option.  The size and pivot bounds, :func:`ub_sim_by_size` and
:func:`ub_sim_by_pivot`, read plain per-attribute ``(lo, hi)`` pairs: a
summary's ``sizes`` and its main-pivot ``box``.

One kernel, :func:`instance_level_scan`, computes the exact match
probability.  It builds its per-attribute similarity tables from the values
of the two tuples' ``options`` first, and goes on only when the sum of the
tables' maxima can pass the threshold.  ``judge_pair`` hands it the
single-option terms, which are the tables of the attributes where both
tuples hold one option, so each pair asks each distance once.  Since the
attributes are imputed independently, the scan then convolves the
per-attribute option pairs attribute by attribute, keeping only partial
sums that can still match, and stops as soon as the pair cannot exceed
alpha.  :func:`pair_probability`, which the ``oracle`` judge calls, is the
same scan with no early stop and no terms handed in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .grid import _SUM_SLACK, STAGE_KEYWORD, STAGE_TOKEN, TupleSummary
from .impute import ImputedTuple
from .metric import DistanceFn

STAGE_SINGLE = "sim_ub_single"
STAGE_SIZE = "sim_ub_size"
STAGE_PIVOT = "sim_ub_pivot"
STAGE_PROB = "prob_ub"
STAGE_INSTANCE = "instance_level"
STAGE_REFINED = "refined"

STAGES = (
    STAGE_KEYWORD, STAGE_TOKEN, STAGE_SINGLE, STAGE_SIZE, STAGE_PIVOT, STAGE_PROB, STAGE_INSTANCE
)

_TOL = 1e-9


@dataclass(frozen=True)
class PairVerdict:
    """Outcome for one candidate pair: the stage that settled it and the probability.

    ``prob`` is the exact match probability when ``stage`` is "refined" and
    None when the pair was discarded by a bound without full evaluation.
    """

    stage: str
    matched: bool = False
    prob: float | None = None


def sim_matches(sim: float, gamma: float) -> bool:
    """Strict similarity threshold; values within tolerance of gamma do not pass."""
    return sim > gamma + _TOL


def prob_reports(prob: float, alpha: float) -> bool:
    """Strict probability threshold for reporting a pair."""
    return prob > alpha + _TOL


def keyword_prune(si: TupleSummary, sj: TupleSummary) -> bool:
    """True when no instance of either tuple can contain a topic keyword."""
    return not si.keywords and not sj.keywords


def sim_ub_token(si: TupleSummary, sj: TupleSummary) -> int:
    """Number of attributes on which the two tuples' key unions intersect.

    Under every distance it bounds every instance pair's similarity (see
    ``token_count_prunes``).
    """
    return sum(not a.isdisjoint(b) for a, b in zip(si.key_unions, sj.key_unions))


def single_option_terms(si: TupleSummary, sj: TupleSummary, f) -> list:
    """Per attribute, a similarity upper bound: ``1.0 - f(a, b)`` where both
    tuples hold one option, ``a`` and ``b``; else 1.0 where the key unions
    meet and 0.0 where they do not.  Their sum, in attribute order, is the
    single-option bound.

    Each term is at least the attribute's largest option-pair similarity
    (values with disjoint keys have similarity exactly 0), so it is at least
    the maximum of the table ``instance_level_scan`` builds, and where both
    tuples hold one option it is that table's one entry.  ``f`` is
    ``dist.bind()``.
    """
    return [
        1.0 - f(oi[0][0], oj[0][0])
        if len(oi) == 1 == len(oj)
        else 0.0 if ki.isdisjoint(kj) else 1.0
        for oi, oj, ki, kj in zip(
            si.imputed.options, sj.imputed.options, si.key_unions, sj.key_unions
        )
    ]


def ub_sim_by_size(sizes_i: list, sizes_j: list) -> float:
    """Similarity upper bound from per-attribute (least, greatest) token-set sizes:
    where two size ranges are disjoint, the smaller size over the larger, else 1."""
    return sum(
        gj / li if li > gj else gi / lj if gi < lj else 1.0
        for (li, gi), (lj, gj) in zip(sizes_i, sizes_j)
    )


def ub_sim_by_pivot(box_i: list, box_j: list) -> float:
    """Similarity upper bound from per-attribute (lo, hi) distances to one pivot:
    d minus the gaps between the ranges, each a distance lower bound (triangle inequality)."""
    return len(box_i) - sum(
        lo_i - hi_j if lo_i > hi_j else lo_j - hi_i if lo_j > hi_i else 0.0
        for (lo_i, hi_i), (lo_j, hi_j) in zip(box_i, box_j)
    )


def prob_ub_paley_zygmund(stats_i: tuple, stats_j: tuple, d: int, gamma: float) -> float:
    """Probability upper bound from main-pivot distance distributions.

    Two symmetric branches apply when the distance ranges of the two tuples
    are separated; otherwise the bound degenerates to 1.
    """
    slack = d - gamma
    best = 1.0
    for (e_a, lb_a, ub_a), (e_b, lb_b, ub_b) in ((stats_i, stats_j), (stats_j, stats_i)):
        if lb_a < ub_b - _TOL:
            continue  # ranges not separated in this orientation
        gap = e_a - e_b
        spread = ub_a - lb_b
        if gap <= _TOL or spread <= _TOL:
            continue
        theta = slack / gap
        if -_TOL <= theta <= 1.0 + _TOL:
            best = min(best, 1.0 - (1.0 - theta) ** 2 * gap / spread)
    return best


def instance_level_scan(
    it_i: ImputedTuple,
    it_j: ImputedTuple,
    gamma: float,
    alpha: float,
    keywords: frozenset,
    dist: DistanceFn,
    terms: list | None = None,
) -> tuple:
    """Exact match probability by convolution over the attributes, stopping
    as soon as the pair cannot exceed alpha.

    Returns (pruned, prob).  ``pruned`` is True when the match probability is
    at most alpha + 1e-9, and ``prob`` is then 0.0; otherwise ``prob`` is
    the exact match probability.

    The tables come first.  Similarities come from one option-vs-option table
    per attribute over the values of the two tuples' ``options``, each entry
    ``1.0 - f(a, b)`` with ``f = dist.bind()``, the float ``dist.sim``
    gives.  Where both tuples hold one option the table is that one entry,
    taken from ``terms`` (:func:`single_option_terms`) when they are handed
    in, so the distance is not asked again.  If even the sum of the tables'
    maxima fails the threshold, no instance pair can match: the probability
    is 0 and the scan returns (0.0 <= alpha + 1e-9, 0.0) before reading any
    probability.  Past that test an empty keyword set raises ConfigError.

    Then, the attributes being imputed independently, the scan walks them in
    order over states ``(s, keyword_seen)``: ``s`` is the partial
    similarity, added from 0.0 one table entry at a time (the float an
    instance pair's ``sum()`` gives before Python 3.12), and the state's
    value is the mass ``mass * pu * pv`` of the option pairs that reach it.
    A one-entry attribute moves every state forward by its entry; only
    where options branch does a state spread over the table.  After each
    attribute a state is dropped when even the later tables' maxima cannot
    lift it past gamma, or when it has seen no keyword and no later option
    of either tuple holds one.  The scan stops pruned once the mass left is
    at most alpha + 1e-9; at the end, the states that pass the threshold
    hold the match probability.
    """
    f = dist.bind()
    opts_i, opts_j = it_i.options, it_j.options
    tables, maxima = [], []  # per attribute: its one entry (a float) or its table, row-major
    for x, (oi, oj) in enumerate(zip(opts_i, opts_j)):
        if len(oi) == 1 == len(oj):
            sim = 1.0 - f(oi[0][0], oj[0][0]) if terms is None else terms[x]
            tables.append(sim)
            maxima.append(sim)
        else:
            table = [1.0 - f(vi, vj) for vi, _ in oi for vj, _ in oj]
            tables.append(table)
            maxima.append(max(table))
    if not sim_matches(sum(maxima) + _SUM_SLACK, gamma):
        return 0.0 <= alpha + _TOL, 0.0
    if not keywords:
        raise ConfigError("keyword set must be non-empty")
    isdisjoint = keywords.isdisjoint
    # per attribute its keyword flags: one for a one-entry attribute, else
    # each tuple's per option; kw_after[x]: a flag from attribute x on is set
    d = len(tables)
    hits, kw_after = [None] * d, [False] * (d + 1)
    for x in range(d - 1, -1, -1):
        oi, oj = opts_i[x], opts_j[x]
        if type(tables[x]) is float:
            hit = hits[x] = not isdisjoint(oi[0][0]) or not isdisjoint(oj[0][0])
            kw_after[x] = kw_after[x + 1] or hit
        else:
            kw_i = [not isdisjoint(v) for v, _ in oi]
            kw_j = [not isdisjoint(v) for v, _ in oj]
            hits[x] = kw_i, kw_j
            kw_after[x] = kw_after[x + 1] or any(kw_i) or any(kw_j)
    cut, floor = gamma + _TOL, alpha + _TOL
    states = {(0.0, False): 1.0}
    for done, (table, oi, oj, hit) in enumerate(zip(tables, opts_i, opts_j, hits), 1):
        reach = sum(maxima[done:]) + _SUM_SLACK
        kw_later = kw_after[done]
        after: dict = {}
        if type(table) is float:
            pu, pv = oi[0][1], oj[0][1]
            for (s, seen), mass in states.items():
                kw = seen or hit
                t = s + table
                if (kw or kw_later) and t + reach > cut:
                    after[t, kw] = after.get((t, kw), 0.0) + mass * pu * pv
        else:
            kw_i, kw_j = hit
            for (s, seen), mass in states.items():
                cells = iter(table)
                for (_, pu), kw_u in zip(oi, kw_i):
                    mass_u = mass * pu
                    # oj first: zip stops on it before taking a cell of the next row
                    for (_, pv), kw_v, sim in zip(oj, kw_j, cells):
                        kw = seen or kw_u or kw_v
                        t = s + sim
                        if (kw or kw_later) and t + reach > cut:
                            after[t, kw] = after.get((t, kw), 0.0) + mass_u * pv
        states = after
        if sum(states.values()) <= floor:
            return True, 0.0
    prob = sum(mass for (s, kw), mass in states.items() if kw and s > cut)
    if prob <= floor:
        return True, 0.0
    return False, prob


def pair_probability(
    it_i: ImputedTuple,
    it_j: ImputedTuple,
    gamma: float,
    keywords: frozenset,
    dist: DistanceFn,
) -> float:
    """Exact match probability: :func:`instance_level_scan` with no early stop.

    An alpha below 0 never meets the prune test, so the scan walks every
    attribute and returns the same float an unpruned scan reports to
    ``judge_pair``: its states are dropped by rules that do not read alpha.
    """
    return instance_level_scan(it_i, it_j, gamma, -1.0, keywords, dist)[1]


def judge_pair(
    si: TupleSummary,
    sj: TupleSummary,
    gamma: float,
    alpha: float,
    keywords: frozenset,
    dist: DistanceFn,
) -> PairVerdict:
    """Run the cascade, from the single-option bound on, on one pair the fetcher's
    filters let through.

    The single-option bound reads no summary field the size, pivot and
    probability bounds read, so a pair it settles never computes them.  Its
    terms go on to the instance-level scan as the one-entry tables.
    """
    terms = single_option_terms(si, sj, dist.bind())
    if not sim_matches(sum(terms) + _SUM_SLACK, gamma):
        return PairVerdict(stage=STAGE_SINGLE)
    if ub_sim_by_size(si.sizes, sj.sizes) <= gamma + _TOL:
        return PairVerdict(stage=STAGE_SIZE)
    if ub_sim_by_pivot(si.box, sj.box) <= gamma + _TOL:
        return PairVerdict(stage=STAGE_PIVOT)
    d = len(si.box)
    ub = prob_ub_paley_zygmund(si.pivot_stats, sj.pivot_stats, d, gamma)
    if ub <= alpha + _TOL:
        return PairVerdict(stage=STAGE_PROB)
    pruned, prob = instance_level_scan(
        si.imputed, sj.imputed, gamma, alpha, keywords, dist, terms
    )
    if pruned:
        return PairVerdict(stage=STAGE_INSTANCE)
    return PairVerdict(stage=STAGE_REFINED, matched=prob_reports(prob, alpha), prob=prob)
