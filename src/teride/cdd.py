"""Rule representation, satisfaction checking, and the simplified offline detector.

A rule X -> A_j carries per-determinant constraints (a constant value or a
distance interval) and a dependent distance interval.  Detection mines rules
from a complete repository over its sample pairs: determinant distances are
quantized into buckets of width 0.1, constants come from frequent values, and
the dependent interval is the tightest interval covering every conforming
pair, so every emitted rule holds on 100% of repository pairs by construction.
Pairs are counted by distinct profile, in one pass per determinant set, and
only those sharing a similarity key on some attribute are enumerated.  Their
distances are read from each attribute's :class:`~teride.metric.PairTable`,
which asks one distance per unordered pair of distinct values that share a
key and which pivot selection then reads too.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from .errors import ConfigError, DeterminantMissing, NoRulesFound
from .metric import DistanceFn, PairTables
from .model import Repository, StreamTuple, TokenSet, parse_token_set, token_key

CONST = "const"
INTERVAL = "interval"

BUCKET_WIDTH = 0.1
MAX_DEP_LO = 0.1  # a mined rule's dependent interval starts at or below this
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class AttrConstraint:
    """One determinant constraint: a constant value or a distance interval."""

    attr: int
    kind: str
    value: Optional[TokenSet] = None
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        if self.kind not in (CONST, INTERVAL):
            raise ConfigError(f"unknown constraint kind {self.kind!r}")
        if self.kind == CONST and (self.value is None or not self.value):
            raise ConfigError("constant constraint requires a non-empty value")
        if self.kind == INTERVAL and not (-1e-9 <= self.lo <= self.hi <= 1.0 + 1e-9):
            raise ConfigError(f"bad constraint interval [{self.lo}, {self.hi}]")
        # constraints key the rules' hashes and the DR-index's per-tuple hits,
        # so the hash is computed once; it is the value the generated __hash__ would give
        object.__setattr__(self, "_hash", hash((self.attr, self.kind, self.value, self.lo, self.hi)))

    def __hash__(self) -> int:
        return self._hash

    def admits(self, distance: float) -> bool:
        if self.kind != INTERVAL:
            raise ConfigError("admits() only applies to interval constraints")
        return self.lo - _EDGE_TOL <= distance <= self.hi + _EDGE_TOL


@dataclass(frozen=True)
class CddRule:
    determinants: tuple  # tuple[AttrConstraint, ...]
    dependent: int
    dep_lo: float
    dep_hi: float

    def __post_init__(self):
        if not self.determinants:
            raise ConfigError("rule requires at least one determinant constraint")
        attrs = [c.attr for c in self.determinants]
        if len(set(attrs)) != len(attrs):
            raise ConfigError("one constraint per determinant attribute")
        if self.dependent in attrs:
            raise ConfigError("dependent attribute cannot be a determinant")
        # also rejects NaN, which fails every comparison
        if not (-_EDGE_TOL <= self.dep_lo <= self.dep_hi <= 1.0 + _EDGE_TOL):
            raise ConfigError(
                f"bad dependent interval [{self.dep_lo}, {self.dep_hi}]:"
                " endpoints must be ordered and within [0, 1]"
            )
        # rules key the per-tuple sample dicts, so the hash is computed once;
        # it is the value the generated __hash__ would give
        object.__setattr__(
            self, "_hash", hash((self.determinants, self.dependent, self.dep_lo, self.dep_hi))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def det_attrs(self) -> frozenset:
        return frozenset(c.attr for c in self.determinants)

    def dep_admits(self, distance: float) -> bool:
        return self.dep_lo - _EDGE_TOL <= distance <= self.dep_hi + _EDGE_TOL

    def applicable_to(self, r: StreamTuple) -> bool:
        """True iff r is missing the dependent and has every determinant present."""
        if r.attrs[self.dependent] is not None:
            return False
        return all(r.attrs[c.attr] is not None for c in self.determinants)


def satisfies_determinants(rule: CddRule, r: StreamTuple, s: StreamTuple, dist: DistanceFn) -> bool:
    """Check the determinant constraints of a rule between tuples r and s.

    r must be present on every determinant attribute; s must be complete.
    """
    for c in rule.determinants:
        rv = r.attrs[c.attr]
        sv = s.attrs[c.attr]
        if rv is None:
            raise DeterminantMissing(f"tuple {r.rid} lacks determinant attribute {c.attr}")
        if c.kind == CONST:
            if rv != c.value or sv != c.value:
                return False
        elif not c.admits(dist(rv, sv)):
            return False
    return True


def _bucket_options(distance: float) -> list:
    """Bucket indexes of width 0.1 covering this distance (two at exact edges)."""
    b = min(int(distance / BUCKET_WIDTH + _EDGE_TOL), 9)
    out = [b]
    # a distance sitting exactly on a bucket edge conforms to both neighbours
    if b > 0 and abs(distance - b * BUCKET_WIDTH) <= _EDGE_TOL:
        out.append(b - 1)
    return out


def detect_cdds(
    repo: Repository,
    dist: DistanceFn,
    max_interval_width: float = 0.3,
    min_support: int = 3,
    max_determinants: int = 2,
    pairs: Optional[PairTables] = None,
) -> list:
    """Mine valid rules from the repository.

    For every determinant set of size <= ``max_determinants``, each
    determinant may be constrained either by a 0.1-wide distance bucket or by
    a frequent constant value.  One pass per determinant set over the pair
    profiles keeps, per combination, its pair count and each attribute's
    distance range; with at least ``min_support`` pairs it yields a rule for
    each dependent outside the set whose range, the tightest interval covering
    those pairs, is no wider than ``max_interval_width``.  Intervals must
    also start at or below ``MAX_DEP_LO``: a rule concluding that the
    dependent values are *dissimilar* admits most of the domain as imputation
    candidates and carries no signal.  Distances are read from ``pairs``,
    the construction's per-attribute tables of key-sharing value pairs,
    built here when none is given.
    """
    if not (0.0 < max_interval_width <= 1.0):
        raise ConfigError("max_interval_width must be in (0, 1]")
    if min_support < 2:
        raise ConfigError("min_support must be >= 2")
    if max_determinants < 1:
        raise ConfigError("max_determinants must be >= 1")
    if pairs is None:
        pairs = PairTables(repo, dist)
    d = repo.d
    tables = [pairs[x] for x in range(d)]
    profiles = _pair_profiles(tables, dist, min_support)

    rules = []
    # (attr, (kind, payload)) -> its AttrConstraint, one object shared by
    # every rule that has it, so per-determinant lookups match by identity
    constraint_of: dict = {}
    for size in range(1, max_determinants + 1):
        for det in itertools.combinations(range(d), size):
            combos: dict = {}  # combo -> [pair count, its profiles' distance rows]
            for (opts, dists), mult in profiles.items():
                for combo in itertools.product(*(opts[x] for x in det)):
                    acc = combos.get(combo)
                    if acc is None:
                        combos[combo] = [mult, [dists]]
                    else:
                        acc[0] += mult
                        acc[1].append(dists)
            for combo, (cnt, rows) in combos.items():
                if cnt < min_support:
                    continue
                # rows[0] twice, so a lone row still gives min and max two arguments
                lows, highs = map(min, rows[0], *rows), map(max, rows[0], *rows)
                constraints = None  # built once, shared by every dependent's rule
                for j, (lo, hi) in enumerate(zip(lows, highs)):
                    if j in det or hi - lo > max_interval_width + _EDGE_TOL or lo > MAX_DEP_LO + _EDGE_TOL:
                        continue
                    if constraints is None:
                        constraints = tuple(
                            constraint_of.get(key) or constraint_of.setdefault(key, _mined_constraint(*key))
                            for key in zip(det, combo)
                        )
                    rules.append(CddRule(determinants=constraints, dependent=j, dep_lo=lo, dep_hi=hi))
    # each (dependent, determinant set, combo) has its own signature, so the
    # sort key orders the rules totally and enumeration order cannot show
    out = sorted(rules, key=_sort_key)
    if not out:
        raise NoRulesFound("no rule passed the support/width thresholds")
    return out


def _mined_constraint(x: int, option: tuple) -> AttrConstraint:
    """The determinant on attribute x that a mined option names: a frequent
    constant value, ``("const", value)``, or a 0.1-wide distance bucket,
    ``("int", index)``."""
    kind, payload = option
    if kind == "const":
        return AttrConstraint(attr=x, kind=CONST, value=payload)
    return AttrConstraint(
        attr=x,
        kind=INTERVAL,
        lo=round(payload * BUCKET_WIDTH, 10),
        hi=round(min((payload + 1) * BUCKET_WIDTH, 1.0), 10),
    )


def _pair_profiles(tables: list, dist: DistanceFn, min_support: int) -> dict:
    """Count the sample pairs ``i <= k`` by profile: (options row, distance row).

    A pair's options row holds, per attribute, what a determinant on it may
    take: its distance buckets, then the shared value when it is a constant,
    one held by at least ``min_support`` samples.  Values that share no
    similarity key (``DistanceFn.keys``) are at distance exactly 1.0, so only
    the pairs sharing a key on some attribute are enumerated, through
    per-attribute key postings of the samples, and each attribute's distance
    is read from its :class:`PairTable` row, 1.0 where the row lacks the
    value.  Every other pair is disjoint on all attributes and joins one
    all-1.0 profile: no self-pair is disjoint, and a constant needs equal
    values.  Pairs are first counted by the tuple of their per-attribute
    cells: a distance's index, ``(index, value number)`` for a constant,
    or None for 1.0.  A value's row is read into a dict once and kept while
    later samples hold the value, and each cell becomes its options and
    distance once.
    """
    n, d = len(tables[0].column), len(tables)
    walks = []  # per attribute: (table, keys per value, sample postings, frequent values, rows, samples left)
    for t in tables:
        keys = [dist.keys(v) for v in t.values]
        post: dict = {}
        for i, u in enumerate(t.column):
            for key in keys[u]:
                post.setdefault(key, []).append(i)
        frequent = {u for u, c in enumerate(t.count) if c >= min_support}
        # value number -> its row as a dict (partner value number -> cell),
        # kept while the value has samples left to walk
        walks.append((t, keys, post, frequent, {}, list(t.count)))
    numbers = list(zip(*(t.column for t in tables)))  # per sample, its value numbers
    counts: Counter = Counter()
    for i in range(n):
        partners: set = set()
        rows = []  # per attribute: the row of sample i's value
        for t, keys, post, frequent, row_of, left in walks:
            u = t.column[i]
            for key in keys[u]:
                ks = post[key]
                partners.update(ks[bisect_left(ks, i):])
            row = row_of.get(u)
            if row is None:
                row = row_of[u] = dict(zip(*t.row(u)))
                if u in frequent:
                    row[u] = (row[u], u)  # a constant: its self-pair's cell and its number
            left[u] -= 1
            if not left[u]:
                del row_of[u]
            rows.append(row)
        # per partner k, the tuple of its cells against sample i: rows[x].get(numbers[k][x])
        cells_of = partial(map, dict.get, rows)
        counts.update(map(tuple, map(cells_of, map(numbers.__getitem__, partners))))

    far = tuple(("int", q) for q in _bucket_options(1.0))
    contents: list = [{None: (far, 1.0)} for _ in tables]  # per attribute: cell -> (options, distance)

    def content(x: int, cell) -> tuple:
        """(options, distance) of a cell on attribute x, one object per cell."""
        got = contents[x].get(cell)
        if got is None:
            const = type(cell) is tuple
            dx = tables[x].distances[cell[0] if const else cell]
            opts = tuple(("int", q) for q in _bucket_options(dx))
            if const:
                opts += (("const", tables[x].values[cell[1]]),)
            got = contents[x][cell] = opts, dx
        return got

    profiles: dict = {}
    for cells, mult in counts.items():
        key = tuple(zip(*(content(x, cell) for x, cell in enumerate(cells))))  # (options row, distance row)
        profiles[key] = profiles.get(key, 0) + mult
    disjoint = n * (n + 1) // 2 - sum(counts.values())
    if disjoint:
        key = ((far,) * d, (1.0,) * d)
        profiles[key] = profiles.get(key, 0) + disjoint
    return profiles


def _signature(rule: CddRule):
    parts = []
    for c in sorted(rule.determinants, key=lambda c: c.attr):
        if c.kind == CONST:
            parts.append((c.attr, CONST, token_key(c.value)))
        else:
            parts.append((c.attr, INTERVAL, round(c.lo, 9), round(c.hi, 9)))
    return (rule.dependent, tuple(parts))


def _sort_key(rule: CddRule):
    return _signature(rule) + (round(rule.dep_lo, 9), round(rule.dep_hi, 9))


# ---------------------------------------------------------------------------
# Line-oriented serialization:
#   DEP=<j> | <x>:CONST:<tokens-joined-by-+> | <x>:INT:<min>,<max> -> [<lo>,<hi>]

def rules_to_text(rules: Sequence[CddRule]) -> str:
    lines = []
    for rule in sorted(rules, key=_sort_key):
        parts = [f"DEP={rule.dependent}"]
        for c in sorted(rule.determinants, key=lambda c: c.attr):
            if c.kind == CONST:
                parts.append(f"{c.attr}:CONST:{'+'.join(sorted(c.value))}")
            else:
                parts.append(f"{c.attr}:INT:{c.lo!r},{c.hi!r}")
        lines.append(" | ".join(parts) + f" -> [{rule.dep_lo!r},{rule.dep_hi!r}]")
    return "\n".join(lines) + "\n"


def _constraint_from_text(field: str) -> AttrConstraint:
    attr_s, kind, payload = field.split(":", 2)
    if kind == "CONST":
        return AttrConstraint(attr=int(attr_s), kind=CONST, value=parse_token_set(payload))
    if kind == "INT":
        lo_s, hi_s = payload.split(",")
        return AttrConstraint(attr=int(attr_s), kind=INTERVAL, lo=float(lo_s), hi=float(hi_s))
    raise ValueError(f"unknown constraint kind {kind!r}")


def rules_from_text(text: str) -> list:
    """The rules of a rule file, in file order.

    Far fewer distinct determinant fields exist than rules, so each distinct
    field is parsed once and its ``AttrConstraint`` shared by every rule that
    names it; a bad field fails on the first line that names it.
    """
    rules = []
    line_of: dict = {}  # rule, determinants in attribute order -> the line it was read from
    constraint_of: dict = {}  # determinant field -> its AttrConstraint
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            head, dep_iv = line.rsplit("->", 1)
            dep_lo, dep_hi = (float(v) for v in dep_iv.strip().strip("[]").split(","))
            fields = [f.strip() for f in head.split("|")]
            dependent = int(fields[0].removeprefix("DEP="))
            constraints = []
            for f in fields[1:]:
                c = constraint_of.get(f)
                if c is None:
                    c = constraint_of[f] = _constraint_from_text(f)
                constraints.append(c)
            rule = CddRule(
                determinants=tuple(constraints), dependent=dependent, dep_lo=dep_lo, dep_hi=dep_hi
            )
            key = (tuple(sorted(constraints, key=lambda c: c.attr)), dependent, dep_lo, dep_hi)
            if key in line_of:
                raise ValueError(f"the rule of line {line_of[key]} again")
            line_of[key] = lineno
            rules.append(rule)
        except (ValueError, IndexError, ConfigError) as exc:
            raise ConfigError(f"rule file line {lineno}: {exc}") from exc
    return rules
