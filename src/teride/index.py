"""The repository index (DR-index) and the rule index (CDD-index).

The DR-index holds, per attribute, the repository samples' main-pivot
coordinates in ascending order, so a range of coordinates is two bisections,
plus per-attribute token and value postings.  The CDD-index of a dependent
attribute is a hash join on constant determinants: its rules are bucketed by
shape (determinant attributes, and which of them are constants) and constant
values, so the rules a tuple could satisfy are one lookup per shape on the
tuple's values.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from typing import Sequence

from .cdd import CONST, CddRule
from .errors import ConfigError
from .metric import DistanceFn
from .model import Repository, StreamTuple, token_postings
from .pivot import PivotSet

# ---------------------------------------------------------------------------
# DR-index

# An admitted distance may exceed an interval's upper end by 1e-9; the prefix
# length allows a thousand times that, so rounding cannot drop a value.
_PREFIX_SLACK = 1e-6


def prefix_positions(postings: dict, v, hi: float) -> set:
    """Positions, from ``postings`` (token -> positions), of every value at a
    Jaccard distance below 1.0 and at most ``hi`` (plus 1e-9) from the token set v.

    Such a value s has ``|v & s| / |v| >= sim(v, s) >= 1 - hi - 1e-9``, so it
    shares at least ``need = max(1, ceil((1 - hi - 1e-6) * |v|))`` of v's
    tokens (at least one, as it is not at distance 1.0), and so holds one of
    any ``|v| - need + 1`` of them.  The union of the postings of v's rarest
    ``|v| - need + 1`` tokens therefore covers it: the prefix filter of
    Chaudhuri, Ganti and Kaushik (ICDE 2006).  The result is a superset, and
    it never covers distance 1.0: callers use it only for intervals that
    reject 1.0 and check each value's distance.
    """
    need = max(1, math.ceil((1.0 - hi - _PREFIX_SLACK) * len(v)))
    prefix = sorted(v, key=lambda t: (len(postings.get(t, ())), t))[: len(v) - need + 1]
    return set().union(*(postings.get(t, ()) for t in prefix))


class DrIndex:
    """Per attribute, the repository samples' main-pivot coordinates in
    ascending order with their sample positions, plus per-attribute postings
    (token -> sample positions, value -> sample positions) over the repository.

    Imputation fetches its samples through the postings: :meth:`samples_per_rule`
    makes one retrieval per tuple for all of its candidate rules, and
    :meth:`near_values` gives the dependent values a sample's value can reach.
    Both use the prefix filter of :func:`prefix_positions` under Jaccard.
    """

    def __init__(self, samples: list, by_coord: list, by_token: list, by_value: list):
        self.samples = samples  # repository order; postings hold positions into it
        self.by_coord = by_coord  # per attr: (ascending coordinates, their positions)
        self.by_token = by_token  # per attr: token -> frozenset of positions
        self.by_value = by_value  # per attr: token set -> frozenset of positions

    def samples_per_rule(
        self, rules, r: StreamTuple, pivots: PivotSet, dist: DistanceFn
    ) -> dict:
        """Rule -> the samples, in repository order, that may satisfy its
        determinants for r: one retrieval for all of r's candidate rules.

        A constant determinant reads the posting of its value.  Under
        Jaccard, an interval determinant that rejects 1.0 reads the prefix
        postings of r's value (:func:`prefix_positions`) and keeps a position
        only if its distance is admitted; each distinct such interval is
        computed once and shared by every rule that has it.  A rule intersects
        the positions of these restricting determinants; a rule with none
        falls back to the range query on its box (:meth:`range_samples`).
        Every sample that satisfies a rule's determinants is returned for it.
        """
        jaccard = dist.kind == DistanceFn.JACCARD
        measure = dist.bind()
        admitted: dict = {}  # (attr, lo, hi, min_open) of an interval -> admitted positions
        out = {}
        for rule in rules:
            picked = None
            for c in rule.determinants:
                rv = r.attrs[c.attr]
                if rv is None:
                    raise ConfigError(f"tuple {r.rid} lacks determinant {c.attr}")
                if c.kind == CONST:
                    hits = self.by_value[c.attr].get(c.value, frozenset())
                elif jaccard and not c.admits(1.0):
                    key = (c.attr, c.lo, c.hi, c.min_open)
                    hits = admitted.get(key)
                    if hits is None:
                        hits = admitted[key] = {
                            i
                            for i in prefix_positions(self.by_token[c.attr], rv, c.hi)
                            if c.admits(measure(rv, self.samples[i].attrs[c.attr]))
                        }
                else:
                    continue
                picked = hits if picked is None else picked & hits
            if picked is None:
                out[rule] = self.range_samples(dr_query_box_for_rule(rule, r, pivots, dist))
            else:
                out[rule] = [self.samples[i] for i in sorted(picked)]
        return out

    def near_values(self, attr: int, v, hi: float) -> set:
        """The repository's attribute-``attr`` values that can lie within Jaccard
        distance ``hi`` (below 1.0) of v, reached through v's prefix postings
        (:func:`prefix_positions`)."""
        return {self.samples[i].attrs[attr] for i in prefix_positions(self.by_token[attr], v, hi)}

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
    by_coord, by_token, by_value = [], [], []
    for x in range(repo.d):
        values = [s.attrs[x] for s in repo.samples]
        main = pivots.main(x)
        coords = [f(v, main) for v in values]
        positions = sorted(range(len(values)), key=coords.__getitem__)
        by_coord.append(([coords[i] for i in positions], positions))
        by_token.append({t: frozenset(ids) for t, ids in token_postings(values).items()})
        postings: dict = {}
        for i, v in enumerate(values):
            postings.setdefault(v, []).append(i)
        by_value.append({v: frozenset(ids) for v, ids in postings.items()})
    return DrIndex(samples=repo.samples, by_coord=by_coord, by_token=by_token, by_value=by_value)


# ---------------------------------------------------------------------------
# CDD-index

class CddIndex:
    """Rule index for one dependent attribute: a hash join on constant determinants.

    A rule's shape is its determinant attributes in attribute order and, of
    those, the ones it holds constant.  ``buckets`` maps (shape, constant
    values in attribute order) to the rules of that shape with those
    constants, so a tuple finds its rules with one lookup per shape.
    """

    def __init__(self, dependent: int, buckets: dict):
        self.dependent = dependent
        self.buckets = buckets
        self.shapes = list(dict.fromkeys(shape for shape, _ in buckets))

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
        out = []
        for shape in self.shapes:
            det_attrs, const_attrs = shape
            if all(attrs[x] is not None for x in det_attrs):
                out.extend(self.buckets.get((shape, tuple(attrs[x] for x in const_attrs)), ()))
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
