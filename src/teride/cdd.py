"""Rule representation, satisfaction checking, and the simplified offline detector.

A rule X -> A_j carries per-determinant constraints (a constant value or a
distance interval) and a dependent distance interval.  Detection mines rules
from a complete repository by scanning sample pairs: determinant distances are
quantized into buckets of width 0.1, constants come from frequent values, and
the dependent interval is the tightest interval covering every conforming
pair, so every emitted rule holds on 100% of repository pairs by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ConfigError, DeterminantMissing, NoRulesFound
from .metric import DistanceFn
from .model import Repository, StreamTuple, TokenSet, token_key

CONST = "const"
INTERVAL = "interval"
MISSING = "missing"

BUCKET_WIDTH = 0.1
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class AttrConstraint:
    """One determinant constraint: a constant value or a distance interval.

    The "missing" kind is a reserved placeholder used only when encoding
    rules into index coordinates; it never takes part in satisfaction checks.
    """

    attr: int
    kind: str
    value: Optional[TokenSet] = None
    lo: float = 0.0
    hi: float = 0.0
    min_open: bool = False  # interval excludes its lower endpoint

    def __post_init__(self):
        if self.kind not in (CONST, INTERVAL, MISSING):
            raise ConfigError(f"unknown constraint kind {self.kind!r}")
        if self.kind == CONST and (self.value is None or not self.value):
            raise ConfigError("constant constraint requires a non-empty value")
        if self.kind == INTERVAL and not (-1e-9 <= self.lo <= self.hi <= 1.0 + 1e-9):
            raise ConfigError(f"bad constraint interval [{self.lo}, {self.hi}]")

    def admits(self, distance: float) -> bool:
        if self.kind != INTERVAL:
            raise ConfigError("admits() only applies to interval constraints")
        if self.min_open:
            return self.lo + _EDGE_TOL < distance <= self.hi + _EDGE_TOL
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
        if self.dep_lo > self.dep_hi:
            raise ConfigError("dependent interval endpoints out of order")

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
        elif c.kind == INTERVAL:
            if not c.admits(dist(rv, sv)):
                return False
        else:  # pragma: no cover - MISSING never appears in mined rules
            raise ConfigError("missing-marker constraints are index-only")
    return True


def rule_is_valid(rule: CddRule, repo: Repository, dist: DistanceFn) -> bool:
    """Brute-force validity check over all repository sample pairs."""
    n = len(repo.samples)
    for i in range(n):
        for k in range(i, n):
            s1, s2 = repo.samples[i], repo.samples[k]
            if satisfies_determinants(rule, s1, s2, dist):
                if not rule.dep_admits(dist(s1.attrs[rule.dependent], s2.attrs[rule.dependent])):
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
    max_dep_lo: float = 0.1,
) -> list:
    """Mine valid rules from the repository.

    For every dependent attribute and determinant set of size <= 2, each
    determinant may be constrained either by a 0.1-wide distance bucket or by
    a frequent constant value; a combination is kept when at least
    ``min_support`` sample pairs conform and the tightest dependent interval
    covering them is no wider than ``max_interval_width``.  Intervals must
    also start at or below ``max_dep_lo``: a rule concluding that the
    dependent values are *dissimilar* admits most of the domain as imputation
    candidates and carries no signal.
    """
    if not (0.0 < max_interval_width <= 1.0):
        raise ConfigError("max_interval_width must be in (0, 1]")
    if not (0.0 <= max_dep_lo <= 1.0):
        raise ConfigError("max_dep_lo must be in [0, 1]")
    if min_support < 2:
        raise ConfigError("min_support must be >= 2")
    samples = repo.samples
    d = repo.d
    n = len(samples)

    # frequent constants per attribute
    frequent: list = []
    for x in range(d):
        counts: dict = {}
        for s in samples:
            counts[s.attrs[x]] = counts.get(s.attrs[x], 0) + 1
        frequent.append({v for v, c in counts.items() if c >= min_support})

    pairs = [(i, k) for i in range(n) for k in range(i, n)]
    pair_dists = [
        [dist(samples[i].attrs[x], samples[k].attrs[x]) for x in range(d)] for i, k in pairs
    ]
    # per pair and attribute, the options a determinant on it may take: its
    # distance buckets, then the shared value when it is a frequent constant
    bucket_opts: dict = {}  # distance -> bucket options, shared across pairs
    distinct_rows: dict = {}  # few distinct rows: pairs share one copy of each
    pair_opts = []
    for (i, k), dists in zip(pairs, pair_dists):
        row = []
        for x, dx in enumerate(dists):
            opts = bucket_opts.get(dx)
            if opts is None:
                opts = bucket_opts[dx] = tuple(("int", b) for b in _bucket_options(dx))
            vi = samples[i].attrs[x]
            if vi == samples[k].attrs[x] and vi in frequent[x]:
                opts = opts + (("const", vi),)
            row.append(opts)
        row = tuple(row)
        pair_opts.append(distinct_rows.setdefault(row, row))

    rules: dict = {}
    for j in range(d):
        others = [x for x in range(d) if x != j]
        for size in range(1, max_determinants + 1):
            for det in itertools.combinations(others, size):
                combos: dict = {}
                for opts, dists in zip(pair_opts, pair_dists):
                    dep_d = dists[j]
                    for combo in itertools.product(*(opts[x] for x in det)):
                        lo, hi, cnt = combos.get(combo, (1.0, 0.0, 0))
                        combos[combo] = (min(lo, dep_d), max(hi, dep_d), cnt + 1)
                for combo, (lo, hi, cnt) in combos.items():
                    if (
                        cnt < min_support
                        or hi - lo > max_interval_width + _EDGE_TOL
                        or lo > max_dep_lo + _EDGE_TOL
                    ):
                        continue
                    constraints = []
                    for x, (kind, payload) in zip(det, combo):
                        if kind == "const":
                            constraints.append(AttrConstraint(attr=x, kind=CONST, value=payload))
                        else:
                            b = payload
                            constraints.append(
                                AttrConstraint(
                                    attr=x,
                                    kind=INTERVAL,
                                    lo=round(b * BUCKET_WIDTH, 10),
                                    hi=round(min((b + 1) * BUCKET_WIDTH, 1.0), 10),
                                )
                            )
                    rule = CddRule(
                        determinants=tuple(constraints), dependent=j, dep_lo=lo, dep_hi=hi
                    )
                    sig = _signature(rule)
                    kept = rules.get(sig)
                    if kept is None or (rule.dep_hi - rule.dep_lo) < (kept.dep_hi - kept.dep_lo):
                        rules[sig] = rule
    out = sorted(rules.values(), key=_sort_key)
    if not out:
        raise NoRulesFound("no rule passed the support/width thresholds")
    return out


def _signature(rule: CddRule):
    parts = []
    for c in sorted(rule.determinants, key=lambda c: c.attr):
        if c.kind == CONST:
            parts.append((c.attr, CONST, token_key(c.value)))
        else:
            parts.append((c.attr, INTERVAL, round(c.lo, 9), round(c.hi, 9), c.min_open))
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
                if c.min_open:
                    raise ConfigError("open-ended intervals are not serializable")
                parts.append(f"{c.attr}:INT:{c.lo!r},{c.hi!r}")
        lines.append(" | ".join(parts) + f" -> [{rule.dep_lo!r},{rule.dep_hi!r}]")
    return "\n".join(lines) + "\n"


def rules_from_text(text: str) -> list:
    rules = []
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
                attr_s, kind, payload = f.split(":", 2)
                if kind == "CONST":
                    constraints.append(
                        AttrConstraint(attr=int(attr_s), kind=CONST, value=frozenset(payload.split("+")))
                    )
                elif kind == "INT":
                    lo_s, hi_s = payload.split(",")
                    constraints.append(
                        AttrConstraint(attr=int(attr_s), kind=INTERVAL, lo=float(lo_s), hi=float(hi_s))
                    )
                else:
                    raise ValueError(f"unknown constraint kind {kind!r}")
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"rule file line {lineno}: {exc}") from exc
        rules.append(
            CddRule(determinants=tuple(constraints), dependent=dependent, dep_lo=dep_lo, dep_hi=dep_hi)
        )
    return rules
