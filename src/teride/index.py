"""Sample retrieval, the repository index (DR-index) and the rule index (CDD-index).

:func:`select_samples` finds each candidate rule's satisfying samples: it
resolves each distinct determinant once per tuple to the exact positions that
meet it, and intersects a rule's sets.  Every mode resolves an interval by
one question, ``reach(attr, v, lo, hi)``: the distinct repository values at
a distance from v in ``[lo, hi]``, which imputation asks of dependent
intervals too.  The DR-index answers it (:meth:`DrIndex.reach`) from
per-attribute postings of similarity keys (``DistanceFn.keys``) to values,
and its resolver (:meth:`DrIndex.hits`) reads postings of values to samples;
the scan's (:func:`scan_reach`) checks every distinct value, and its
resolver (:func:`scan_hits`) reads every sample.  The CDD-index of a
dependent attribute is a hash join on constant determinants: its rules are
bucketed by shape (determinant attributes, and which of them are constants)
and constant values, so the rules a tuple could satisfy are one lookup per
shape on the tuple's values.  A shape with no constant has one bucket,
resolved when the index is built, so it costs a tuple only the check that it
holds the shape's attributes.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

from .cdd import CONST, CddRule
from .errors import ConfigError
from .metric import DistanceFn, as_number
from .model import Repository, StreamTuple
from .pivot import PivotSet

# ---------------------------------------------------------------------------
# DR-index

# An admitted distance may exceed an interval's upper end by 1e-9; the prefix
# length and the equality bound allow a thousand times that, so rounding
# cannot drop a value.
_PREFIX_SLACK = 1e-6
_EMPTY = frozenset()


def equality_only(v, hi: float) -> bool:
    """True when, under Jaccard, no token set other than v lies within
    distance ``hi`` (plus 1e-9) of v.

    A set s other than v, with v of n tokens, is at distance at least
    ``1 / (n + 1)``: a superset shares n of at least n + 1 tokens, any other
    set misses one of v's tokens and shares at most n - 1 of at least n.  So
    ``hi + 1e-6 < 1 / (n + 1)`` leaves only v itself, at distance 0.0.
    """
    return hi + _PREFIX_SLACK < 1.0 / (len(v) + 1)


def prefix_values(postings: dict, v, hi: float):
    """Distinct values, from ``postings`` (key -> distinct values), covering
    every value at a distance below 1.0 and at most ``hi`` (plus 1e-9) from a
    value whose similarity keys (``DistanceFn.keys``) are v.  Under absdiff v is one key,
    so the prefix is that key.  Under Jaccard v is the token set, and a value
    s within ``hi`` has ``|v & s| / |v| >= sim(v, s) >= 1 - hi - 1e-9``, so it
    shares at least ``need = max(1, ceil((1 - hi - 1e-6) * |v|))`` of v's
    tokens (at least one, as it is not at distance 1.0), and so holds one of
    any ``|v| - need + 1`` of them.  The union of the postings of v's rarest
    ``|v| - need + 1`` tokens therefore covers it: the prefix filter of
    Chaudhuri, Ganti and Kaushik (ICDE 2006).  The result is a superset, and
    it never covers distance 1.0: callers use it only for intervals that
    reject 1.0 and check each value's distance.  :meth:`DrIndex.reach` skips
    it when :func:`equality_only` holds, as then v alone can be reached.  A
    one-key prefix returns that key's posting, read only.
    """
    need = max(1, math.ceil((1.0 - hi - _PREFIX_SLACK) * len(v)))
    prefix = sorted(v, key=lambda t: (len(postings.get(t, ())), t))[: len(v) - need + 1]
    if len(prefix) == 1:
        return postings.get(prefix[0], ())
    return set().union(*(postings.get(t, ()) for t in prefix))


class DrIndex:
    """Per attribute, postings from similarity keys to distinct values and from
    values to sample positions.  :meth:`reach` resolves an interval around a
    value to the distinct values it admits, and :meth:`hits` a determinant
    to those values' samples."""

    def __init__(self, samples: list, by_key: list, by_value: list, dist: DistanceFn, pivots: PivotSet):
        self.samples = samples  # repository order; postings hold positions into it
        self.by_key = by_key  # per attr: similarity key -> list of distinct values
        self.by_value = by_value  # per attr: token set -> frozenset of positions
        self.pivots = pivots  # read only by range_samples
        self.jaccard = dist.kind == DistanceFn.JACCARD
        self.keys = dist.keys
        self.measure = dist.bind()

    def reach(self, attr: int, v, lo: float, hi: float):
        """The distinct attribute-``attr`` values at a distance from v in
        ``[lo, hi]``, give or take 1e-9.  An interval that rejects 1.0 reaches
        at most v itself when no other value lies within its upper end below
        1.0: under Jaccard when :func:`equality_only` holds, under absdiff
        when v is not a finite number.  Otherwise it checks the values of v's
        prefix postings (:func:`prefix_values`).  Any other interval checks
        every distinct value."""
        by_value, measure = self.by_value[attr], self.measure
        if hi + 1e-9 < 1.0:
            if equality_only(v, hi) if self.jaccard else as_number(v) is None:
                return (v,) if lo - 1e-9 <= 0.0 <= hi + 1e-9 and v in by_value else ()
            near = prefix_values(self.by_key[attr], self.keys(v), hi)
        else:
            near = by_value
        return [u for u in near if lo - 1e-9 <= measure(v, u) <= hi + 1e-9]

    def hits(self, c, rv):
        """The engine's resolver: the positions of the samples that meet
        determinant c for r's value rv.  A constant reads its value's posting
        if rv equals it; an interval reads the postings of the values it
        reaches (:meth:`reach`), one value's posting as it is."""
        by_value = self.by_value[c.attr]
        if c.kind == CONST:
            return by_value.get(rv, _EMPTY) if rv == c.value else _EMPTY
        near = self.reach(c.attr, rv, c.lo, c.hi)
        return by_value[near[0]] if len(near) == 1 else set().union(*(by_value[u] for u in near))

    def range_samples(self, box: dict) -> list:
        """Samples, in repository order, whose main-pivot distance on each
        attribute of the (partial) query box lies within its (lo, hi), give
        or take 1e-9; a box that names no attribute returns every sample."""
        f, main = self.measure, self.pivots.main
        ends = [(x, main(x), lo - 1e-9, hi + 1e-9) for x, (lo, hi) in box.items()]
        return [s for s in self.samples if all(lo <= f(s.attrs[x], p) <= hi for x, p, lo, hi in ends)]


def select_samples(candidates: dict, r: StreamTuple, hits, samples: list) -> tuple:
    """``(rules_by_dep, samples_per_rule)``: per missing attribute j of r, the
    rules of ``candidates[j]`` that some sample satisfies, and per such rule
    exactly those samples, in repository order.  ``hits(c, rv)`` resolves a
    determinant c for r's value rv to the positions in ``samples`` that meet
    it; each distinct determinant is resolved once, and one r lacks resolves
    to nothing.  A rule intersects its determinants' sets up to the first
    empty one."""
    attrs = r.attrs
    hits_of: dict = {}  # determinant -> its positions for r
    rules_by_dep, samples_per_rule = {}, {}
    for j in r.missing:
        served = rules_by_dep[j] = []
        for rule in candidates.get(j, ()):
            picked = None
            for c in rule.determinants:
                got = hits_of.get(c)
                if got is None:
                    rv = attrs[c.attr]
                    got = hits_of[c] = _EMPTY if rv is None else hits(c, rv)
                picked = got if picked is None else picked & got
                if not picked:
                    break
            if picked:
                served.append(rule)
                samples_per_rule[rule] = [samples[i] for i in sorted(picked)]
    return rules_by_dep, samples_per_rule


def scan_reach(repo: Repository, dist: DistanceFn):
    """``noindex``'s and ``oracle``'s :meth:`DrIndex.reach`: it checks every
    distinct value."""
    measure = dist.bind()

    def reach(attr, v, lo, hi):
        return [u for u in repo.domain(attr) if lo - 1e-9 <= measure(v, u) <= hi + 1e-9]

    return reach


def scan_hits(samples: list, reach):
    """``noindex``'s resolver: one scan of ``samples`` per determinant, an
    interval's against the values ``reach`` gives; a constant other than r's
    value resolves to nothing with no scan."""

    def hits(c, rv):
        x = c.attr
        if c.kind == CONST:
            return {i for i, s in enumerate(samples) if s.attrs[x] == rv} if rv == c.value else _EMPTY
        near = set(reach(x, rv, c.lo, c.hi))
        return {i for i, s in enumerate(samples) if s.attrs[x] in near}

    return hits


def build_dr_index(repo: Repository, pivots: PivotSet, dist: DistanceFn) -> DrIndex:
    by_key, by_value = [], []
    for x in range(repo.d):
        domain = repo.domain(x)
        by_key.append({k: [domain[i] for i in ids] for k, ids in dist.postings(domain).items()})
        postings: dict = {}
        for i, s in enumerate(repo.samples):
            postings.setdefault(s.attrs[x], []).append(i)
        by_value.append({v: frozenset(ids) for v, ids in postings.items()})
    return DrIndex(repo.samples, by_key, by_value, dist, pivots)


# ---------------------------------------------------------------------------
# CDD-index

class CddIndex:
    """Rule index for one dependent attribute: a hash join on constant determinants.

    A rule's shape is its determinant attributes in attribute order and, of
    those, the ones it holds constant.  ``buckets`` maps (shape, constant
    values in attribute order) to the rules of that shape with those
    constants, so a tuple finds its rules with one lookup per shape.  A
    shape that holds no constant has one bucket, resolved when the index is
    built, so a tuple that holds its attributes takes that bucket with no lookup.
    """

    def __init__(self, dependent: int, buckets: dict):
        self.dependent = dependent
        self.buckets = buckets
        self.shapes = list(dict.fromkeys(shape for shape, _ in buckets))
        # per shape, in order: (its determinant attributes, its one bucket when
        # it holds no constant, the shape)
        self._probes = [
            (frozenset(shape[0]), None if shape[1] else buckets[shape, ()], shape)
            for shape in self.shapes
        ]

    @functools.cached_property
    def lattice(self) -> list:
        """Level l -> the distinct unions of l groups' attribute sets, the groups
        being a greedy superset cover of the rules' determinant sets, largest
        first.  No query reads it, and g groups have 2^g - 1 combinations, so
        it is built only when read."""
        det_sets = {frozenset(attrs) for attrs, _ in self.shapes}
        groups: list = []
        for ds in sorted(det_sets, key=lambda s: (-len(s), sorted(s))):
            if not any(ds <= g for g in groups):
                groups.append(ds)
        return _build_lattice(groups)

    def candidate_rules(self, r: StreamTuple) -> list:
        """The rules r could satisfy, each once: r holds every determinant
        attribute and equals every constant."""
        attrs = r.attrs
        if attrs[self.dependent] is not None:
            raise ConfigError(f"tuple {r.rid} is not missing attribute {self.dependent}")
        missing, buckets = r.missing, self.buckets
        out = []
        for det_attrs, bucket, shape in self._probes:
            if det_attrs.isdisjoint(missing):
                if bucket is None:  # look up r's values at the shape's constant attributes
                    bucket = buckets.get((shape, tuple(map(attrs.__getitem__, shape[1]))), ())
                out.extend(bucket)
        return out


def build_cdd_index(rules: Sequence[CddRule]) -> CddIndex:
    rules = list(rules)
    if not rules:
        raise ConfigError("cannot index an empty rule set")
    dependents = {r.dependent for r in rules}
    if len(dependents) != 1:
        raise ConfigError("one CDD-index per dependent attribute")
    buckets: dict = {}
    for rule in rules:
        dets = sorted(rule.determinants, key=lambda c: c.attr)
        consts = [c for c in dets if c.kind == CONST]
        shape = (tuple(c.attr for c in dets), tuple(c.attr for c in consts))
        buckets.setdefault((shape, tuple(c.value for c in consts)), []).append(rule)
    return CddIndex(dependent=dependents.pop(), buckets=buckets)


def _build_lattice(group_attrs: list) -> list:
    heads = [frozenset(g) for g in group_attrs]
    lattice = []
    for level in range(1, len(heads) + 1):
        combos = []
        for combo in itertools.combinations(range(len(heads)), level):
            merged = frozenset().union(*(heads[i] for i in combo))
            combos.append(merged)
        lattice.append(sorted(set(combos), key=lambda s: (len(s), sorted(s))))
    return lattice


def dr_query_box_for_rule(
    rule: CddRule, r: StreamTuple, pivots: PivotSet, dist: DistanceFn
) -> dict:
    """Main-coordinate query box over the DR-index for samples that may satisfy a rule.

    Constant constraints pin the coordinate; interval constraints widen r's
    coordinate by the interval's upper bound (triangle inequality).
    """
    f = dist.bind()
    box = {}
    for c in rule.determinants:
        rv = r.attrs[c.attr]
        if rv is None:
            raise ConfigError(f"tuple {r.rid} lacks determinant {c.attr}")
        cx = f(rv, pivots.main(c.attr))
        if c.kind == CONST:
            box[c.attr] = (cx, cx)
        else:
            box[c.attr] = (max(0.0, cx - c.hi), min(1.0, cx + c.hi))
    return box
