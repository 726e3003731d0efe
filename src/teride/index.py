"""Aggregate R-trees over rules (CDD-index) and repository samples (DR-index).

Both trees are bulk-loaded with sort-tile-recursive packing at fanout 8 and
are immutable after construction.  Non-leaf entries carry covering aggregates
(keyword unions, distance/size intervals) so whole subtrees can be pruned
without false dismissals.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

from .cdd import CONST, INTERVAL, CddRule
from .errors import ConfigError
from .metric import DistanceFn
from .model import Repository, StreamTuple, token_postings
from .pivot import PivotSet, convert

FANOUT = 8
MISSING_COORD = -1.0
_TOL = 1e-9


@dataclass
class Node:
    """An R-tree node: a covering box plus either child nodes or leaf items."""

    box: list  # per-dim (lo, hi)
    children: list = field(default_factory=list)
    items: list = field(default_factory=list)
    agg: dict = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _cover(boxes) -> list:
    dims = len(boxes[0])
    return [
        (min(b[k][0] for b in boxes), max(b[k][1] for b in boxes)) for k in range(dims)
    ]


def _str_pack(entries, dims: int, fanout: int = FANOUT) -> Node:
    """Sort-tile-recursive bulk load; `entries` are (box, payload) pairs."""

    def tile(group, dim):
        if len(group) <= fanout:
            return [group]
        group = sorted(
            group, key=lambda e: ((e[0][dim][0] + e[0][dim][1]) / 2.0, e[2])
        )
        n_leaves = math.ceil(len(group) / fanout)
        n_slabs = math.ceil(n_leaves ** (1.0 / max(1, dims - dim)))
        slab_size = math.ceil(len(group) / n_slabs)
        out = []
        for i in range(0, len(group), slab_size):
            slab = group[i : i + slab_size]
            if dim + 1 < dims:
                out.extend(tile(slab, dim + 1))
            else:
                for k in range(0, len(slab), fanout):
                    out.append(slab[k : k + fanout])
        return out

    indexed = [(box, payload, i) for i, (box, payload) in enumerate(entries)]
    groups = tile(indexed, 0)
    nodes = [
        Node(box=_cover([e[0] for e in g]), items=[(e[0], e[1]) for e in g]) for g in groups
    ]
    while len(nodes) > 1:
        nodes = sorted(
            nodes, key=lambda n: tuple((lo + hi) / 2.0 for lo, hi in n.box)
        )
        parents = []
        for i in range(0, len(nodes), fanout):
            kids = nodes[i : i + fanout]
            parents.append(Node(box=_cover([k.box for k in kids]), children=kids))
        nodes = parents
    return nodes[0]


def _walk(node: Node):
    yield node
    for c in node.children:
        yield from _walk(c)


def _box_intersects(box, query) -> bool:
    for (lo, hi), (qlo, qhi) in zip(box, query):
        if hi < qlo - _TOL or lo > qhi + _TOL:
            return False
    return True


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


@dataclass
class SamplePayload:
    sample: StreamTuple
    keywords: frozenset  # query keywords present anywhere in the sample
    aux: dict  # (attr, pivot_idx>=1) -> distance
    sizes: list  # per-attr token set size


class DrIndex:
    """Aggregate R-tree over pivot-converted repository samples, plus per-attribute
    postings (token -> sample positions, value -> sample positions) over the
    repository.

    Imputation fetches its samples through the postings: :meth:`samples_per_rule`
    makes one retrieval per tuple for all of its candidate rules, and
    :meth:`near_values` gives the dependent values a sample's value can reach.
    Both use the prefix filter of :func:`prefix_positions` under Jaccard.
    """

    def __init__(self, root: Node, d: int, samples: list, by_token: list, by_value: list):
        self.root = root
        self.d = d
        self.samples = samples  # repository order; postings hold positions into it
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
        falls back to the R-tree box.  Every sample that satisfies a rule's
        determinants is returned for it.
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
        """Samples whose main-pivot coordinates intersect the (partial) query box.

        `box` maps attribute index to (lo, hi); unconstrained attributes span [0, 1].
        """
        query = [box.get(x, (0.0, 1.0)) for x in range(self.d)]
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not _box_intersects(node.box, query):
                continue
            if node.is_leaf:
                for ibox, payload in node.items:
                    if _box_intersects(ibox, query):
                        out.append(payload.sample)
            else:
                stack.extend(node.children)
        return out


def build_dr_index(
    repo: Repository, pivots: PivotSet, keywords: frozenset, dist: DistanceFn
) -> DrIndex:
    entries = []
    by_value = [{} for _ in range(repo.d)]
    for i, s in enumerate(repo.samples):
        for x, v in enumerate(s.attrs):
            by_value[x].setdefault(v, set()).add(i)
        coords = [convert(s.attrs[x], x, pivots, dist) for x in range(repo.d)]
        box = [(coords[x][0], coords[x][0]) for x in range(repo.d)]
        all_tokens = frozenset().union(*s.attrs)
        payload = SamplePayload(
            sample=s,
            keywords=frozenset(keywords & all_tokens),
            aux={
                (x, a): coords[x][a]
                for x in range(repo.d)
                for a in range(1, pivots.n_pivots(x))
            },
            sizes=[len(s.attrs[x]) for x in range(repo.d)],
        )
        entries.append((box, payload))
    root = _str_pack(entries, dims=repo.d)
    for node in _walk(root):
        _set_dr_aggregates(node)
    return DrIndex(
        root=root,
        d=repo.d,
        samples=repo.samples,
        by_token=[
            {t: frozenset(ids) for t, ids in token_postings([s.attrs[x] for s in repo.samples]).items()}
            for x in range(repo.d)
        ],
        by_value=[{v: frozenset(ids) for v, ids in p.items()} for p in by_value],
    )


def _set_dr_aggregates(node: Node) -> None:
    if node.is_leaf:
        kws = [p.keywords for _, p in node.items]
        auxes = [p.aux for _, p in node.items]
        sizes = [p.sizes for _, p in node.items]
    else:
        for c in node.children:
            if not c.agg:
                _set_dr_aggregates(c)
        kws = [c.agg["keywords"] for c in node.children]
        auxes = [c.agg["aux"] for c in node.children]
        sizes_lo = [c.agg["size_lo"] for c in node.children]
        sizes_hi = [c.agg["size_hi"] for c in node.children]
    node.agg["keywords"] = frozenset().union(*kws) if kws else frozenset()
    aux_cover: dict = {}
    for aux in auxes:
        for key, val in aux.items():
            if isinstance(val, tuple):
                lo, hi = val
            else:
                lo = hi = val
            cur = aux_cover.get(key)
            aux_cover[key] = (lo, hi) if cur is None else (min(cur[0], lo), max(cur[1], hi))
    node.agg["aux"] = aux_cover
    if node.is_leaf:
        d = len(sizes[0]) if sizes else 0
        node.agg["size_lo"] = [min(sz[x] for sz in sizes) for x in range(d)]
        node.agg["size_hi"] = [max(sz[x] for sz in sizes) for x in range(d)]
    else:
        d = len(sizes_lo[0])
        node.agg["size_lo"] = [min(lo[x] for lo in sizes_lo) for x in range(d)]
        node.agg["size_hi"] = [max(hi[x] for hi in sizes_hi) for x in range(d)]


# ---------------------------------------------------------------------------
# CDD-index

@dataclass
class RuleEntry:
    rule: CddRule
    kinds: dict  # dim attr -> CONST | INTERVAL | "missing"
    aux: dict  # (attr, pivot_idx>=1) -> distance of the constant to that pivot


@dataclass
class RuleGroup:
    attrs: list  # sorted determinant attributes X_m of the group
    root: Node


class CddIndex:
    """Rule index for one dependent attribute: one tree per group of determinant sets."""

    def __init__(self, dependent: int, groups: list):
        self.dependent = dependent
        self.groups = groups

    @functools.cached_property
    def lattice(self) -> list:
        """Level l -> the distinct unions of l groups' attribute sets.  No query
        reads it, and a rule set with g groups has 2^g - 1 combinations, so it
        is built only when read."""
        return _build_lattice([frozenset(g.attrs) for g in self.groups])

    def candidate_rules(self, r: StreamTuple, pivots: PivotSet, dist: DistanceFn) -> list:
        """Rules whose determinants could be satisfied by r (no false dismissals)."""
        if r.attrs[self.dependent] is not None:
            raise ConfigError(f"tuple {r.rid} is not missing attribute {self.dependent}")
        # pivot coordinates of r's values, converted when an all-constant node
        # first needs them and shared by the groups
        coords: dict = {}
        out = []
        for group in self.groups:
            stack = [group.root]
            while stack:
                node = stack.pop()
                if self._prune_node(node, group, r, coords, pivots, dist):
                    continue
                if node.is_leaf:
                    for _, entry in node.items:
                        rule = entry.rule
                        if not rule.applicable_to(r):
                            continue
                        if all(
                            c.kind != CONST or r.attrs[c.attr] == c.value
                            for c in rule.determinants
                        ):
                            out.append(rule)
                else:
                    stack.extend(node.children)
        return out

    @staticmethod
    def _prune_node(
        node: Node, group: RuleGroup, r: StreamTuple, coords: dict, pivots: PivotSet, dist: DistanceFn
    ) -> bool:
        for k, x in enumerate(group.attrs):
            lo, hi = node.box[k]
            if r.attrs[x] is None:
                # r lacks attr x: only rules without a real constraint on x apply
                if lo > MISSING_COORD + _TOL:
                    return True
                continue
            if not node.agg["all_const"][k]:
                continue
            cc = coords.get(x)
            if cc is None:
                cc = coords[x] = convert(r.attrs[x], x, pivots, dist)
            cx = cc[0]
            if cx < lo - _TOL or cx > hi + _TOL:
                return True
            for (ax, a), (alo, ahi) in node.agg["aux"].items():
                if ax == x and a < len(cc):
                    ca = cc[a]
                    if ca < alo - _TOL or ca > ahi + _TOL:
                        return True
        return False


def build_cdd_index(rules: Sequence[CddRule], pivots: PivotSet, dist: DistanceFn) -> CddIndex:
    rules = list(rules)
    if not rules:
        raise ConfigError("cannot index an empty rule set")
    dependents = {r.dependent for r in rules}
    if len(dependents) != 1:
        raise ConfigError("one CDD-index per dependent attribute")
    dependent = dependents.pop()

    # greedy superset cover: largest determinant sets first
    det_sets = sorted({r.det_attrs for r in rules}, key=lambda s: (-len(s), sorted(s)))
    group_attrs: list = []
    assignment: dict = {}
    for ds in det_sets:
        for gi, ga in enumerate(group_attrs):
            if ds <= ga:
                assignment[ds] = gi
                break
        else:
            assignment[ds] = len(group_attrs)
            group_attrs.append(ds)

    groups = []
    for gi, ga in enumerate(group_attrs):
        attrs = sorted(ga)
        members = [r for r in rules if assignment[r.det_attrs] == gi]
        entries = []
        for rule in members:
            box = []
            kinds = {}
            aux = {}
            by_attr = {c.attr: c for c in rule.determinants}
            for x in attrs:
                c = by_attr.get(x)
                if c is None:
                    box.append((MISSING_COORD, MISSING_COORD))
                    kinds[x] = "missing"
                elif c.kind == CONST:
                    cc = convert(c.value, x, pivots, dist)
                    box.append((cc[0], cc[0]))
                    kinds[x] = CONST
                    for a in range(1, len(cc)):
                        aux[(x, a)] = cc[a]
                else:
                    box.append((c.lo, c.hi))
                    kinds[x] = INTERVAL
            entries.append((box, RuleEntry(rule=rule, kinds=kinds, aux=aux)))
        root = _str_pack(entries, dims=len(attrs))
        for node in _walk(root):
            _set_cdd_aggregates(node, attrs)
        groups.append(RuleGroup(attrs=attrs, root=root))

    return CddIndex(dependent=dependent, groups=groups)


def _set_cdd_aggregates(node: Node, attrs: list) -> None:
    if node.is_leaf:
        entries = [e for _, e in node.items]
        node.agg["dep_interval"] = (
            min(e.rule.dep_lo for e in entries),
            max(e.rule.dep_hi for e in entries),
        )
        node.agg["all_const"] = [
            all(e.kinds[x] == CONST for e in entries) for x in attrs
        ]
        aux_cover: dict = {}
        for e in entries:
            for key, val in e.aux.items():
                cur = aux_cover.get(key)
                aux_cover[key] = (
                    (val, val) if cur is None else (min(cur[0], val), max(cur[1], val))
                )
        node.agg["aux"] = aux_cover
    else:
        for c in node.children:
            if not c.agg:
                _set_cdd_aggregates(c, attrs)
        node.agg["dep_interval"] = (
            min(c.agg["dep_interval"][0] for c in node.children),
            max(c.agg["dep_interval"][1] for c in node.children),
        )
        node.agg["all_const"] = [
            all(c.agg["all_const"][k] for c in node.children) for k in range(len(attrs))
        ]
        aux_cover = {}
        for c in node.children:
            for key, (lo, hi) in c.agg["aux"].items():
                cur = aux_cover.get(key)
                aux_cover[key] = (lo, hi) if cur is None else (min(cur[0], lo), max(cur[1], hi))
        node.agg["aux"] = aux_cover


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
    box = {}
    for c in rule.determinants:
        rv = r.attrs[c.attr]
        if rv is None:
            raise ConfigError(f"tuple {r.rid} lacks determinant {c.attr}")
        cx = convert(rv, c.attr, pivots, dist)[0]
        if c.kind == CONST:
            box[c.attr] = (cx, cx)
        else:
            box[c.attr] = (max(0.0, cx - c.hi), min(1.0, cx + c.hi))
    return box
