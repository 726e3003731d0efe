"""The repository index (DR-index) and the rule index (CDD-index).

The DR-index holds, per attribute, the repository samples' main-pivot
coordinates in ascending order, so a range of coordinates is two bisections,
plus per-attribute postings from similarity keys (``DistanceFn.keys``) to
values and from values to samples.  An interval that rejects distance 1.0
reaches only the values that share a key with the tuple's value, so
imputation reads its samples and dependent values from the postings (see
:class:`DrIndex`); a determinant that restricts nothing leaves the rule to
the box.  The CDD-index of a dependent attribute is a hash join on constant
determinants: its rules are bucketed by shape (determinant attributes, and
which of them are constants) and constant values, so the rules a tuple could
satisfy are one lookup per shape on the tuple's values.  A shape with no
constant has one bucket, resolved when the index is built, so it costs a
tuple only the check that it holds the shape's attributes.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
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
_UNSEEN = object()
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
    reject 1.0 and check each value's distance.  :meth:`DrIndex.samples_per_rule`
    skips it when :func:`equality_only` holds, as then the value posting of v
    alone is exact.  A one-key prefix returns that key's posting, read only.
    """
    need = max(1, math.ceil((1.0 - hi - _PREFIX_SLACK) * len(v)))
    prefix = sorted(v, key=lambda t: (len(postings.get(t, ())), t))[: len(v) - need + 1]
    if len(prefix) == 1:
        return postings.get(prefix[0], ())
    return set().union(*(postings.get(t, ()) for t in prefix))


class DrIndex:
    """Per attribute, the repository samples' main-pivot coordinates in
    ascending order with their sample positions, plus per-attribute postings
    (similarity key -> distinct values, value -> sample positions).

    Imputation fetches its samples through the postings: :meth:`samples_per_rule`
    makes one retrieval per tuple for all of its candidate rules, and
    :meth:`near_values` gives the dependent values a sample's value can reach,
    never more than the attribute's domain, under both distances, by the
    prefix filter of :func:`prefix_values` on an interval that rejects 1.0.
    Under Jaccard :meth:`samples_per_rule` uses it too, and takes the value
    postings of the values it admits, but reads only the value posting of a
    determinant interval that :func:`equality_only` bounds; under absdiff it
    reads the value posting of an interval that rejects 1.0 on a value that
    is not a finite number.
    """

    def __init__(self, samples: list, by_coord: list, by_key: list, by_value: list):
        self.samples = samples  # repository order; postings hold positions into it
        self.by_coord = by_coord  # per attr: (ascending coordinates, their positions)
        self.by_key = by_key  # per attr: similarity key -> list of distinct values
        self.by_value = by_value  # per attr: token set -> frozenset of positions

    def samples_per_rule(
        self, rules, r: StreamTuple, pivots: PivotSet, dist: DistanceFn
    ) -> dict:
        """Rule -> the samples, in repository order, that may satisfy its
        determinants for r: one retrieval for all of r's candidate rules.

        A constant determinant reads the posting of its value.  An interval
        determinant that rejects 1.0 reads the posting of r's value v if it
        admits 0.0, and nothing otherwise, when no other value lies below
        distance 1.0 within its upper end: under Jaccard when
        :func:`equality_only` holds for v and that end (``hi + 1e-6 < 1 /
        (|v| + 1)``), and under absdiff when v is not a finite number, as
        such a value lies at 1.0 from every other value.  Otherwise, under
        Jaccard, it reads the prefix postings of v (:func:`prefix_values`) and
        takes the positions of the values whose distance is admitted; under absdiff
        a finite number v restricts nothing.  Each distinct determinant is
        worked out once per tuple and shared by every rule that has it.  A
        rule intersects the positions of these restricting determinants, up
        to the first empty intersection; a rule with none falls back to the
        range query on its box (:meth:`range_samples`).  Every sample that
        satisfies a rule's determinants is returned for it.
        """
        jaccard = dist.kind == DistanceFn.JACCARD
        measure = dist.bind()
        attrs = r.attrs
        hits_of: dict = {}  # determinant -> its positions for r, None if it restricts none
        out = {}
        for rule in rules:
            for c in rule.determinants:
                if attrs[c.attr] is None:
                    raise ConfigError(f"tuple {r.rid} lacks determinant {c.attr}")
            picked = None
            for c in rule.determinants:
                hits = hits_of.get(c, _UNSEEN)
                if hits is _UNSEEN:
                    hits = hits_of[c] = self._hits(c, attrs[c.attr], jaccard, measure)
                if hits is None:
                    continue
                picked = hits if picked is None else picked & hits
                if not picked:
                    break
            if picked is None:
                out[rule] = self.range_samples(dr_query_box_for_rule(rule, r, pivots, dist))
            else:  # most intersections are empty, and skip the sort
                out[rule] = [self.samples[i] for i in sorted(picked)] if picked else []
        return out

    def _hits(self, c, rv, jaccard: bool, measure):
        """The positions whose values can meet determinant c for r's value rv,
        or None when c restricts none (see :meth:`samples_per_rule`)."""
        if c.kind == CONST:
            return self.by_value[c.attr].get(c.value, _EMPTY)
        if c.admits(1.0):
            return None
        if equality_only(rv, c.hi) if jaccard else as_number(rv) is None:
            return self.by_value[c.attr].get(rv, _EMPTY) if c.admits(0.0) else _EMPTY
        if not jaccard:
            return None
        by_value, near = self.by_value[c.attr], prefix_values(self.by_key[c.attr], rv, c.hi)
        return set().union(*(by_value[u] for u in near if c.admits(measure(rv, u))))

    def near_values(self, attr: int, v, hi: float, dist: DistanceFn):
        """The repository's distinct attribute-``attr`` values that can lie
        within distance ``hi`` (below 1.0) of v, reached through the prefix
        postings of v's similarity keys (:func:`prefix_values`); read only."""
        return prefix_values(self.by_key[attr], dist.keys(v), hi)

    def range_samples(self, box: dict) -> list:
        """Samples, in repository order, whose main-pivot coordinate on each
        attribute of the (partial) query box lies within its (lo, hi), give
        or take 1e-9; a box that names no attribute returns every sample."""
        picked = None
        for x, (lo, hi) in box.items():
            coords, positions = self.by_coord[x]
            hits = positions[bisect_left(coords, lo - 1e-9) : bisect_right(coords, hi + 1e-9)]
            picked = set(hits) if picked is None else picked.intersection(hits)
        if picked is None:
            return list(self.samples)
        return [self.samples[i] for i in sorted(picked)]


def build_dr_index(repo: Repository, pivots: PivotSet, dist: DistanceFn) -> DrIndex:
    f = dist.bind()
    by_coord, by_key, by_value = [], [], []
    for x in range(repo.d):
        values = [s.attrs[x] for s in repo.samples]
        main = pivots.main(x)
        coords = [f(v, main) for v in values]
        positions = sorted(range(len(values)), key=coords.__getitem__)
        by_coord.append(([coords[i] for i in positions], positions))
        domain = repo.domain(x)
        by_key.append({k: [domain[i] for i in ids] for k, ids in dist.postings(domain).items()})
        postings: dict = {}
        for i, v in enumerate(values):
            postings.setdefault(v, []).append(i)
        by_value.append({v: frozenset(ids) for v, ids in postings.items()})
    return DrIndex(repo.samples, by_coord, by_key, by_value)


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
