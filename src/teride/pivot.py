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
from .model import Repository, TokenSet, token_key

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
    """Select main and auxiliary pivots per attribute from the repository domains."""
    if dist is None:
        dist = DistanceFn()
    if cntMax < 1:
        raise ConfigError("cntMax must be >= 1")
    per_attr = []
    for attr in range(repo.d):
        domain = repo.domain(attr)
        if not domain:
            raise EmptyDomain(f"attribute {attr} has no domain values")
        chosen = [_argmax(domain, lambda v: entropy(v, attr, repo, P, dist))]
        h = entropy(chosen[0], attr, repo, P, dist)
        while h < eMin and len(chosen) < cntMax:
            remaining = [v for v in domain if v not in chosen]
            if not remaining:
                break
            # the chosen pivots' buckets are shared by every candidate's joint entropy
            keys = _bucket_keys(chosen, attr, repo, P, dist)
            best = _argmax(
                remaining,
                lambda v: _keys_entropy(
                    [k + b for k, b in zip(keys, _bucket_keys([v], attr, repo, P, dist))]
                ),
            )
            chosen.append(best)
            h = joint_entropy(chosen, attr, repo, P, dist)
        per_attr.append(chosen)
    return PivotSet(per_attr=per_attr, bucket_count=P, entropy_threshold=eMin, max_pivots=cntMax)


def _argmax(values, score):
    best_v, best_s = None, None
    for v in sorted(values, key=token_key):
        s = score(v)
        if best_s is None or s > best_s + _EDGE_TOL:
            best_v, best_s = v, s
    return best_v


def convert(value: TokenSet, attr: int, pivots: PivotSet, dist: DistanceFn) -> list:
    """Distances from a value to each pivot of the attribute; index 0 is the main coordinate."""
    return [dist(value, piv) for piv in pivots.per_attr[attr]]


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
            entries[(int(kv["attr"]), int(kv["idx"]))] = frozenset(kv["tokens"].split("+"))
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
