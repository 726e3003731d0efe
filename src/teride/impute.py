"""Imputation of missing attributes via rules, and probabilistic tuple expansion.

A missing attribute is imputed by one counting loop: for each applicable
rule, every repository sample that satisfies the rule's determinants adds 1
to each domain value whose distance to the sample's dependent value lies in
the rule's dependent interval.  The pooled counts are normalized into an
existence-probability distribution.

The engine's fetcher only selects what the loop reads.  The scan fetcher
(``noindex``, ``oracle``) selects every rule, so each rule scans all samples
and each sample the whole dependent domain.  The index fetcher (``engine``)
finds the rules whose determinants the tuple holds and whose constants it
equals (one hash lookup per rule shape), asks the DR-index for each rule's
samples, and hands on only the rules it served a sample, with those samples;
under Jaccard, when the dependent interval rejects distance 1.0, each sample
then checks only the domain values that its value's prefix postings reach
(``DrIndex.near_values``).  A rule served no sample counts nothing, the rest
are supersets of what the scan accepts, and every value is still checked, so
the result is the same.

An ``ImputedTuple`` keeps per attribute the values of its options, by
descending probability (``option_values``): the instance-level scan builds
its similarity tables from them, and the instance enumeration, which only a
scan past its table-maxima test reads, indexes into them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cdd import CddRule, satisfies_determinants
from .errors import ImputationFailed
from .index import DrIndex
from .metric import DistanceFn
from .model import Repository, StreamTuple, contains_keyword, token_key

PROB_TOL = 1e-9
FALLBACK_TOP_K = 5


def impute_multi_rule(
    r: StreamTuple,
    rules: Sequence[CddRule],
    repo: Repository,
    dist: DistanceFn,
    samples_per_rule: Optional[dict] = None,
    dr_index: Optional[DrIndex] = None,
) -> list:
    """Pooled candidate probabilities over all the rules (see the module docstring).

    A rule that ``samples_per_rule`` does not name scans the whole repository.
    Returns (value, prob) pairs sorted by descending probability, ties in
    token order; raises ImputationFailed when no value was counted.
    """
    served = samples_per_rule or {}
    counts: dict = {}
    for rule in rules:
        samples = served.get(rule, repo.samples)
        if not samples:
            continue
        j = rule.dependent
        domain = repo.domain(j)
        near = dr_index is not None and dist.kind == DistanceFn.JACCARD and not rule.dep_admits(1.0)
        for s in samples:
            if not satisfies_determinants(rule, r, s, dist):
                continue
            sv = s.attrs[j]
            for val in dr_index.near_values(j, sv, rule.dep_hi) if near else domain:
                if rule.dep_admits(dist(sv, val)):
                    counts[val] = counts.get(val, 0) + 1
    if not counts:
        raise ImputationFailed(f"no rule yields a candidate for tuple {r.rid}")
    denom = sum(counts.values())
    out = [(val, freq / denom) for val, freq in counts.items()]
    out.sort(key=_by_prob_then_token)
    return out


def fallback_candidates(repo: Repository, attr: int, k: int = FALLBACK_TOP_K) -> list:
    """Uniform distribution over the k most frequent domain values."""
    top = repo.top_values(attr, k)
    p = 1.0 / len(top)
    return [(val, p) for val in top]


@dataclass
class ImputedTuple:
    """A probabilistic tuple: per-missing-attribute weighted candidate values.

    Complete tuples have no candidate entries and exactly one instance with
    probability 1.  Candidate probabilities per attribute sum to 1.
    """

    base: StreamTuple
    per_attr_candidates: dict = field(default_factory=dict)  # attr -> [(value, prob)]
    fallback_attrs: frozenset = frozenset()
    _instances: Optional[list] = field(default=None, repr=False, compare=False)
    _enumeration: Optional[tuple] = field(default=None, repr=False, compare=False)
    _keyword_flags: Optional[tuple] = field(default=None, repr=False, compare=False)
    _token_unions: Optional[list] = field(default=None, repr=False, compare=False)
    _option_values: Optional[list] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        missing = set(self.base.missing_attrs())
        if set(self.per_attr_candidates) != missing:
            raise ImputationFailed(
                f"tuple {self.base.rid}: candidates cover {sorted(self.per_attr_candidates)} "
                f"but missing attrs are {sorted(missing)}"
            )
        for j, cands in self.per_attr_candidates.items():
            if not cands:
                raise ImputationFailed(f"tuple {self.base.rid}: empty candidate list for attr {j}")
            total = sum(p for _, p in cands)
            if abs(total - 1.0) > PROB_TOL:
                raise ImputationFailed(f"tuple {self.base.rid}: attr {j} probs sum to {total}")

    @property
    def rid(self) -> str:
        return self.base.rid

    @property
    def stream_id(self) -> int:
        return self.base.stream_id

    def option_values(self) -> list:
        """Per attribute, the values of its options: the present value, or the
        candidate values by descending probability, ties in token order."""
        if self._option_values is None:
            self._option_values = [
                [v] if v is not None
                else [c for c, _ in sorted(self.per_attr_candidates[j], key=_by_prob_then_token)]
                for j, v in enumerate(self.base.attrs)
            ]
        return self._option_values

    def instance_count(self) -> int:
        n = 1
        for cands in self.per_attr_candidates.values():
            n *= len(cands)
        return n

    def instances(self) -> list:
        """All concrete instances as (complete StreamTuple, prob), aligned with
        the rows of :meth:`instance_rows`; built on the first call."""
        if self._instances is None:
            base = self.base
            values, rows = self.instance_rows()
            self._instances = [
                (
                    StreamTuple(
                        rid=base.rid,
                        stream_id=base.stream_id,
                        arrival_time=base.arrival_time,
                        attrs=tuple(vals[i] for vals, i in zip(values, row)),
                    ),
                    p,
                )
                for row, p in zip(rows, self.instance_probs())
            ]
        return self._instances

    def instance_rows(self) -> tuple:
        """(values, rows): :meth:`option_values`, and every option-index row
        into it, sorted by (-p, row) where p is the row's joint probability."""
        if self._enumeration is None:
            self._enumeration = _enumerate_instances(self)
        return self._enumeration[:2]

    def instance_probs(self) -> list:
        """Per row of :meth:`instance_rows`, its joint probability."""
        if self._enumeration is None:
            self._enumeration = _enumerate_instances(self)
        return self._enumeration[2]

    def token_unions(self) -> list:
        """Per attribute, the union of the tokens of all its values (a present value as it is)."""
        if self._token_unions is None:
            self._token_unions = [
                v if v is not None
                else frozenset().union(*(c for c, _ in self.per_attr_candidates[j]))
                for j, v in enumerate(self.base.attrs)
            ]
        return self._token_unions

    def instance_keyword_flags(self, keywords: frozenset) -> list:
        """Per instance (aligned with :meth:`instances`): does any value hold a keyword?"""
        if self._keyword_flags is None or self._keyword_flags[0] != keywords:
            values, rows = self.instance_rows()
            hits = [[contains_keyword(v, keywords) for v in vals] for vals in values]
            flags = [any(h[i] for h, i in zip(hits, row)) for row in rows]
            self._keyword_flags = (keywords, flags)
        return self._keyword_flags[1]


def _by_prob_then_token(vp) -> tuple:
    return -vp[1], token_key(vp[0])


def _enumerate_instances(it: ImputedTuple) -> tuple:
    """(values, rows, probs) over every option-index row, sorted by (-p, row).

    ``values`` is :meth:`ImputedTuple.option_values`; its order puts each
    attribute's probabilities in descending order, so sorting them alone
    aligns them with it."""
    probs = [
        [1.0] if v is not None
        else sorted((p for _, p in it.per_attr_candidates[j]), reverse=True)
        for j, v in enumerate(it.base.attrs)
    ]
    scored = sorted(
        (-_joint(probs, row), row)
        for row in itertools.product(*(range(len(ps)) for ps in probs))
    )
    return it.option_values(), [row for _, row in scored], [-negp for negp, _ in scored]


def _joint(prob_lists, idx) -> float:
    p = 1.0
    for ps, i in zip(prob_lists, idx):
        p *= ps[i]
    return p


def impute_tuple(
    r: StreamTuple,
    rules_by_dep: dict,
    repo: Repository,
    dist: DistanceFn,
    samples_per_rule: Optional[dict] = None,
    dr_index: Optional[DrIndex] = None,
) -> ImputedTuple:
    """Impute every missing attribute of r independently; complete tuples pass through.

    ``samples_per_rule`` and ``dr_index`` narrow the scans (see the module
    docstring) without changing the result.  When no rule yields support for
    an attribute, falls back to a uniform distribution over the most frequent
    domain values and flags the tuple.
    """
    if r.is_complete():
        return ImputedTuple(base=r)
    per_attr: dict = {}
    fallback: set = set()
    for j in r.missing_attrs():
        applicable = [rule for rule in rules_by_dep.get(j, ()) if rule.applicable_to(r)]
        try:
            per_attr[j] = impute_multi_rule(r, applicable, repo, dist, samples_per_rule, dr_index)
        except ImputationFailed:
            per_attr[j] = fallback_candidates(repo, j)
            fallback.add(j)
    return ImputedTuple(base=r, per_attr_candidates=per_attr, fallback_attrs=frozenset(fallback))
