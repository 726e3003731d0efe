"""Entropy-based pivot selection and conversion of token sets to pivot distances.

For each attribute the main pivot is the domain value whose distances to the
repository samples spread most evenly over P equal buckets of [0, 1] (maximum
Shannon entropy, base 2).  If the main pivot alone does not reach the entropy
threshold, auxiliary pivots are added greedily, scoring candidates by joint
entropy over the product bucket grid of the chosen pivots plus the candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, EmptyDomain
from .metric import DistanceFn
from .model import Repository, TokenSet, parse_token_set, token_key, token_postings

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
) -> PivotSet:
    """Select main and auxiliary pivots per attribute from the repository domains.

    Scores equal :func:`entropy` for the main pivot and :func:`joint_entropy`
    for the auxiliary ones; under Jaccard, distances are computed only to the
    samples a candidate shares a token with (see :class:`_AttrSamples`).
    """
    if dist is None:
        dist = DistanceFn()
    if P < 2:
        raise ConfigError("P must be >= 2")
    if cntMax < 1:
        raise ConfigError("cntMax must be >= 1")
    per_attr = []
    for attr in range(repo.d):
        domain = repo.domain(attr)
        if not domain:
            raise EmptyDomain(f"attribute {attr} has no domain values")
        samples = _AttrSamples([s.attrs[attr] for s in repo.samples], P, dist)
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
    return PivotSet(per_attr=per_attr, bucket_count=P, entropy_threshold=eMin, max_pivots=cntMax)


class _AttrSamples:
    """One attribute's sample values, bucketed against the chosen pivots and a candidate.

    Under Jaccard a sample that shares no token with a candidate is at
    distance exactly 1.0, in bucket P-1, so distances are computed only for
    the candidate's partners: the samples in the union of its tokens'
    postings.  Under absdiff disjoint numeric values can be close, so every
    sample is a partner.
    """

    def __init__(self, values: list, P: int, dist: DistanceFn):
        self.values = values
        self.P = P
        self.dist = dist
        self.postings = token_postings(values) if dist.kind == DistanceFn.JACCARD else None
        self.keys = [()] * len(values)  # per sample, its buckets for the chosen pivots
        self.groups = {(): list(range(len(values)))}  # key -> ascending sample positions

    def buckets(self, v: TokenSet) -> dict:
        """Ascending partner position -> its bucket for candidate v."""
        if self.postings is None:
            partners = range(len(self.values))
        else:
            partners = sorted(set().union(*(self.postings.get(t, ()) for t in v)))
        values, P, dist = self.values, self.P, self.dist
        return {i: _bucket(dist(values[i], v), P) for i in partners}

    def entropy(self, v: TokenSet) -> float:
        """:func:`entropy` of candidate v."""
        hits = self.buckets(v)
        counts = [0] * self.P
        for b in hits.values():
            counts[b] += 1
        counts[-1] += len(self.values) - len(hits)
        return _entropy_from_counts(counts, len(self.values))

    def choose(self, v: TokenSet) -> None:
        """Append each sample's bucket for pivot v to its key."""
        hits = self.buckets(v)
        last = self.P - 1
        self.keys = [key + (hits.get(i, last),) for i, key in enumerate(self.keys)]
        self.groups = {}
        for i, key in enumerate(self.keys):
            self.groups.setdefault(key, []).append(i)

    def joint_entropy(self, v: TokenSet) -> float:
        """:func:`joint_entropy` of the chosen pivots plus candidate v.

        The non-partners under each key are counted by subtraction, and the
        terms are summed in order of each joint key's first sample, the order
        :func:`_keys_entropy` sums in.
        """
        hits = self.buckets(v)
        counts: dict = {}
        first: dict = {}
        hits_per_key: dict = {}
        for i, b in hits.items():  # ascending positions
            key = self.keys[i]
            hits_per_key[key] = hits_per_key.get(key, 0) + 1
            joint = key + (b,)
            counts[joint] = counts.get(joint, 0) + 1
            first.setdefault(joint, i)
        last = (self.P - 1,)
        for key, members in self.groups.items():
            rest = len(members) - hits_per_key.get(key, 0)
            if rest:
                joint = key + last
                counts[joint] = counts.get(joint, 0) + rest
                at = next(i for i in members if i not in hits)
                first[joint] = min(first.get(joint, at), at)
        ordered = sorted(counts, key=first.__getitem__)
        return _entropy_from_counts((counts[k] for k in ordered), len(self.values))


def _argmax(values, score) -> tuple:
    """(value, score) of the best-scoring value; ties go to the first in token order."""
    best_v, best_s = None, None
    for v in sorted(values, key=token_key):
        s = score(v)
        if best_s is None or s > best_s + _EDGE_TOL:
            best_v, best_s = v, s
    return best_v, best_s


def convert(value: TokenSet, attr: int, pivots: PivotSet, dist: DistanceFn) -> list:
    """Distances from a value to each pivot of the attribute; index 0 is the main coordinate.

    The kind-specific distance is bound once per call (``DistanceFn.bind``).
    """
    f = dist.bind()
    return [f(value, piv) for piv in pivots.per_attr[attr]]


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


def pivots_from_text(text: str) -> PivotSet:
    P, eMin, cntMax = DEFAULT_P, DEFAULT_EMIN, DEFAULT_CNTMAX
    entries: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("PARAMS"):
                kv = dict(part.split("=") for part in line.split()[1:])
                P, eMin, cntMax = int(kv["P"]), float(kv["eMin"]), int(kv["cntMax"])
                continue
            kv = dict(part.split("=", 1) for part in line.split()[1:])
            x, a = int(kv["attr"]), int(kv["idx"])
            if x < 0 or a < 0:
                raise ValueError(f"negative attr or idx in {line!r}")
            entries[(x, a)] = parse_token_set(kv["tokens"])
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"pivot file line {lineno}: {exc}") from exc
    if not entries:
        raise ConfigError("pivot file holds no pivots")
    d = max(x for x, _ in entries) + 1
    per_attr = []
    for x in range(d):
        idxs = sorted(a for (xx, a) in entries if xx == x)
        if idxs != list(range(len(idxs))):
            raise ConfigError(f"pivot file: non-contiguous pivot indexes for attr {x}")
        per_attr.append([entries[(x, a)] for a in idxs])
    return PivotSet(per_attr=per_attr, bucket_count=P, entropy_threshold=eMin, max_pivots=cntMax)
