"""Entropy-based pivot selection, and the pivot file format.

For each attribute the main pivot is the domain value whose distances to the
repository samples spread most evenly over P equal buckets of [0, 1] (maximum
Shannon entropy, base 2).  If the main pivot alone does not reach the entropy
threshold, auxiliary pivots are added greedily, scoring candidates by joint
entropy over the product bucket grid of the chosen pivots plus the candidate.
Online code reads only the main pivot, so the engine selects with
``cntMax=1``; ``teride pivots`` still writes auxiliary pivots.

The candidates of an attribute are its distinct sample values, and every
candidate's buckets come from the attribute's :class:`~teride.metric.PairTable`,
which holds one distance per unordered pair of values that share a
similarity key (``DistanceFn.keys``); every other pair is at distance 1.0.
The main round adds each partner's sample count into the candidate's bucket
histogram straight from its table row.  An auxiliary round reads the same
rows and splits only the groups of samples (equal buckets for the chosen
pivots) that hold one of the candidate's partners; every other group counts
with its recorded first sample and size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

from .errors import ConfigError, EmptyDomain
from .metric import DistanceFn, PairTable, PairTables
from .model import Repository, TokenSet, parse_token_set

DEFAULT_P = 10
DEFAULT_EMIN = 1.5
DEFAULT_CNTMAX = 3

_EDGE_TOL = 1e-9


@dataclass
class PivotSet:
    """Ordered pivots per attribute; index 0 is the main pivot."""

    per_attr: list  # list[list[TokenSet]]
    bucket_count: int = DEFAULT_P
    entropy_threshold: float = DEFAULT_EMIN
    max_pivots: int = DEFAULT_CNTMAX

    @property
    def d(self) -> int:
        return len(self.per_attr)

    def n_pivots(self, attr: int) -> int:
        return len(self.per_attr[attr])

    def main(self, attr: int) -> TokenSet:
        return self.per_attr[attr][0]


def _bucket(distance: float, P: int) -> int:
    return min(int(distance * P + _EDGE_TOL), P - 1)


def entropy(candidate: TokenSet, attr: int, repo: Repository, P: int, dist: DistanceFn) -> float:
    """Shannon entropy (base 2) of sample distances to the candidate over P buckets."""
    if P < 2:
        raise ConfigError("P must be >= 2")
    counts = [0] * P
    for s in repo.samples:
        counts[_bucket(dist(s.attrs[attr], candidate), P)] += 1
    return _entropy_from_counts(counts.__iter__(), len(repo.samples))


def joint_entropy(pivots, attr: int, repo: Repository, P: int, dist: DistanceFn) -> float:
    """Entropy over the product bucket grid of several pivots on one attribute."""
    return _keys_entropy(_bucket_keys(pivots, attr, repo, P, dist))


def _bucket_keys(pivots, attr: int, repo: Repository, P: int, dist: DistanceFn) -> list:
    """Per sample, in repository order, the tuple of its buckets for the pivots."""
    return [tuple(_bucket(dist(s.attrs[attr], piv), P) for piv in pivots) for s in repo.samples]


def _keys_entropy(keys: list) -> float:
    counts: dict = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return _entropy_from_counts(counts.values(), len(keys))


def _entropy_from_counts(counts, total: int) -> float:
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def select_pivots(
    repo: Repository,
    P: int = DEFAULT_P,
    eMin: float = DEFAULT_EMIN,
    cntMax: int = DEFAULT_CNTMAX,
    dist: DistanceFn | None = None,
    pairs: PairTables | None = None,
) -> PivotSet:
    """Select main and auxiliary pivots per attribute from the repository domains.

    Scores equal :func:`entropy` for the main pivot and :func:`joint_entropy`
    for the auxiliary ones, float for float.  The distances are read from
    ``pairs``, the construction's per-attribute tables of key-sharing value
    pairs (built here when none is given), which ask each unordered pair of
    distinct sample values at most once (see :class:`_AttrSamples`).
    ``cntMax=1`` selects main pivots only, and runs no auxiliary round.
    """
    if dist is None:
        dist = DistanceFn()
    if P < 2:
        raise ConfigError("P must be >= 2")
    if cntMax < 1:
        raise ConfigError("cntMax must be >= 1")
    if not math.isfinite(eMin):
        raise ConfigError("eMin must be finite")
    per_attr = []
    for attr in range(repo.d):
        domain = repo.domain(attr)
        if not domain:
            raise EmptyDomain(f"attribute {attr} has no domain values")
        samples = _AttrSamples(PairTable.of(repo, attr, dist) if pairs is None else pairs[attr], P)
        main, h = _argmax(domain, samples.entropy)
        chosen = [main]
        while h < eMin and len(chosen) < cntMax:
            remaining = [v for v in domain if v not in chosen]
            if not remaining:
                break
            # the chosen pivots' buckets are shared by every candidate's joint entropy
            samples.choose(chosen[-1])
            best, h = _argmax(remaining, samples.joint_entropy)
            chosen.append(best)
        per_attr.append(chosen)
        del samples  # a table built here goes before the next attribute builds its own
    return PivotSet(per_attr=per_attr, bucket_count=P, entropy_threshold=eMin, max_pivots=cntMax)


class _AttrSamples:
    """One attribute's sample values, grouped by their buckets for the chosen pivots.

    Samples holding the same value share every bucket, so work is done per
    distinct value, weighted by its sample count; distinct values carry their
    :class:`PairTable` numbers, in order of their first sample, and every
    candidate is one of them.  A value that shares no similarity key
    (``DistanceFn.keys``) with a candidate is at distance exactly 1.0, in
    bucket P-1, so a candidate's partners, the values it has a bucket for,
    are its table row: under absdiff every finite number, or the candidate
    alone.  :meth:`entropy` adds each partner's sample count into the
    candidate's histogram straight from that row.

    The auxiliary rounds read the same rows.  Each :meth:`choose` records
    every group's first value, size and members, and an auxiliary score
    splits only the groups that hold a partner; the first :meth:`choose`
    sets that state up, so a main round alone builds none of it.
    """

    def __init__(self, table: PairTable, P: int):
        self.table = table
        self.n = len(table.column)
        self.P = P
        # per distance index of the table, its bucket (_bucket, inlined)
        self.bucket = [min(int(dx * P + _EDGE_TOL), P - 1) for dx in table.distances]
        # groups of equal buckets for the chosen pivots, numbered in order of first sample
        self.key_of = None  # per value, P times its group
        self.groups = None  # per group: [first value, sample count]
        self.members = None  # per group: ascending values

    def buckets(self, v: TokenSet) -> tuple:
        """(ascending partners, their buckets) of candidate v."""
        partners, ids = self.table.row(self.table.number[v])
        return partners, map(self.bucket.__getitem__, ids)

    def entropy(self, v: TokenSet) -> float:
        """:func:`entropy` of candidate v."""
        counts = [0] * self.P
        weight = self.table.count
        for u, b in zip(*self.buckets(v)):
            counts[b] += weight[u]
        counts[-1] = self.n - sum(counts[:-1])  # non-partners and partners in bucket P-1
        return _entropy_from_counts(counts, self.n)

    def choose(self, v: TokenSet) -> None:
        """Split each group by its values' buckets for pivot v."""
        P, weight, size = self.P, self.table.count, len(self.table.values)
        if self.groups is None:
            self.key_of = [0] * size
            self.groups = [[0, self.n]]
            self.members = [list(range(size))]
        bucket_of = [P - 1] * size
        for u, b in zip(*self.buckets(v)):
            bucket_of[u] = b
        numbered: dict = {}  # P * old group + bucket -> new group
        groups, members = [], []
        for u, key in enumerate(map(add, self.key_of, bucket_of)):
            g = numbered.setdefault(key, len(numbered))
            if g == len(groups):
                groups.append([u, 0])
                members.append([])
            groups[g][1] += weight[u]
            members[g].append(u)
            self.key_of[u] = g * P
        self.groups, self.members = groups, members

    def joint_entropy(self, v: TokenSet) -> float:
        """:func:`joint_entropy` of the chosen pivots plus candidate v.

        Only the groups that hold a partner of v are split; every other group
        lies whole in bucket P-1 and contributes its recorded size.  A split
        group's non-partners are counted by subtraction.  The terms are summed
        in order of each joint key's first sample, the order
        :func:`_keys_entropy` sums in.
        """
        partners, bs = self.buckets(v)
        key_of, weight, P = self.key_of, self.table.count, self.P
        split: dict = {}  # P * group + bucket -> [first value, sample count]
        for u, b in zip(partners, bs):  # ascending values
            k = key_of[u] + b
            if k in split:
                split[k][1] += weight[u]
            else:
                split[k] = [u, weight[u]]
        hit: dict = {}  # group -> sample count of its partners
        for k, (_, c) in split.items():
            hit[k // P] = hit.get(k // P, 0) + c
        is_partner = None
        for g, hits in hit.items():
            rest = self.groups[g][1] - hits
            if rest:
                if is_partner is None:
                    is_partner = set(partners)
                at = next(u for u in self.members[g] if u not in is_partner)
                entry = split.setdefault(P * g + P - 1, [at, 0])
                entry[0] = min(entry[0], at)
                entry[1] += rest
        terms = [grp for g, grp in enumerate(self.groups) if g not in hit]
        terms.extend(split.values())
        terms.sort()
        return _entropy_from_counts((c for _, c in terms), self.n)


def _argmax(values, score) -> tuple:
    """(value, score) of the best of ``values``, given in token order; ties go to the first."""
    best_v, best_s = None, None
    for v in values:
        s = score(v)
        if best_s is None or s > best_s + _EDGE_TOL:
            best_v, best_s = v, s
    return best_v, best_s


# ---------------------------------------------------------------------------
# Serialization: `PIVOT attr=<x> idx=<a> tokens=<...>` lines, token sets joined by +.

def pivots_to_text(pivots: PivotSet) -> str:
    lines = [
        f"PARAMS P={pivots.bucket_count} eMin={pivots.entropy_threshold!r} cntMax={pivots.max_pivots}"
    ]
    for x, plist in enumerate(pivots.per_attr):
        for a, piv in enumerate(plist):
            lines.append(f"PIVOT attr={x} idx={a} tokens={'+'.join(sorted(piv))}")
    return "\n".join(lines) + "\n"


def _fields(parts: list, keys: tuple) -> dict:
    """The ``key=value`` parts of a line, which must name each of ``keys`` once and nothing else."""
    kv = dict(part.split("=", 1) for part in parts)
    if len(kv) != len(parts) or set(kv) != set(keys):
        raise ValueError(f"need the fields {', '.join(keys)} once each")
    return kv


def pivots_from_text(text: str) -> PivotSet:
    P, eMin, cntMax = DEFAULT_P, DEFAULT_EMIN, DEFAULT_CNTMAX
    params_line = None
    by_attr: dict = {}  # attr -> {idx: (pivot, the line it was read from)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            kind, *parts = line.split()
            if kind == "PARAMS":
                if params_line is not None:
                    raise ValueError(f"a second PARAMS line; the first is line {params_line}")
                params_line = lineno
                kv = _fields(parts, ("P", "eMin", "cntMax"))
                P, eMin, cntMax = int(kv["P"]), float(kv["eMin"]), int(kv["cntMax"])
                # the parameters select_pivots accepts
                if P < 2 or cntMax < 1 or not math.isfinite(eMin):
                    raise ValueError(f"need P >= 2, cntMax >= 1 and a finite eMin in {line!r}")
                continue
            if kind != "PIVOT":
                raise ValueError(f"unknown line kind {kind!r}; expected PARAMS or PIVOT")
            kv = _fields(parts, ("attr", "idx", "tokens"))
            x, a = int(kv["attr"]), int(kv["idx"])
            if x < 0 or a < 0:
                raise ValueError(f"negative attr or idx in {line!r}")
            pivots = by_attr.setdefault(x, {})
            if a in pivots:
                raise ValueError(f"a second pivot for attr={x} idx={a}; the first is line {pivots[a][1]}")
            pivots[a] = parse_token_set(kv["tokens"]), lineno
        except ValueError as exc:
            raise ConfigError(f"pivot file line {lineno}: {exc}") from exc
    if not by_attr:
        raise ConfigError("pivot file holds no pivots")
    # checked on the attributes named, so no loop runs to an attribute number
    for x, named in enumerate(sorted(by_attr)):
        if named != x:
            raise ConfigError(f"pivot file: no pivot for attr {x}, below attr {max(by_attr)}")
    per_attr = []
    for x in range(len(by_attr)):
        pivots = by_attr[x]
        if sorted(pivots) != list(range(len(pivots))):
            raise ConfigError(f"pivot file: non-contiguous pivot indexes for attr {x}")
        per_attr.append([pivots[a][0] for a in range(len(pivots))])
    return PivotSet(per_attr=per_attr, bucket_count=P, entropy_threshold=eMin, max_pivots=cntMax)
