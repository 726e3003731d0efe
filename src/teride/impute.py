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
equals (one hash lookup per rule shape that holds a constant; a shape with
none has its one bucket resolved when the index is built), asks the
DR-index for each rule's samples, and hands on only the rules it served a
sample, with those samples; when the dependent interval rejects distance
1.0, each sample then checks only the domain values that the prefix
postings of its value's similarity keys reach (``DrIndex.near_values``).
A rule served no sample counts nothing, the rest are supersets of what the
scan accepts, and every value is still checked, so the result is the same.

When the loop counts no value it returns [], and the attribute falls back
to a uniform distribution over the repository's most frequent values.  That
fallback is the same for every tuple, so it is built once per repository and
attribute (``shared_fallback``), with its token union, and every tuple that
falls back on the attribute shares both, read only.

An ``ImputedTuple`` lists per attribute its options as ``(value, prob)``
pairs (``options``): a present value at 1.0, or the candidates by descending
probability, ties in token order.  Every candidate list ``impute_tuple``
builds is already in that order, so it hands the tuple its options and
token unions as it builds them; they are normalized counts or the uniform
fallback, so they are not checked again.  A tuple built elsewhere is checked
on construction, and sorts and unions on first read.  The pair bounds and
the instance-level scan both read ``options``; the scan builds its
similarity tables from the values and convolves the probabilities attribute
by attribute, so no instance of the product is ever listed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cdd import CddRule, satisfies_determinants
from .errors import ImputationFailed
from .index import DrIndex
from .metric import DistanceFn
from .model import Repository, StreamTuple, token_key

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
    token order, or [] when no value was counted.
    """
    served = samples_per_rule or {}
    counts: dict = {}
    for rule in rules:
        samples = served.get(rule, repo.samples)
        if not samples:
            continue
        j = rule.dependent
        domain = repo.domain(j)
        near = dr_index is not None and not rule.dep_admits(1.0)
        for s in samples:
            if not satisfies_determinants(rule, r, s, dist):
                continue
            sv = s.attrs[j]
            for val in dr_index.near_values(j, sv, rule.dep_hi, dist) if near else domain:
                if rule.dep_admits(dist(sv, val)):
                    counts[val] = counts.get(val, 0) + 1
    if not counts:
        return []
    denom = sum(counts.values())
    out = [(val, freq / denom) for val, freq in counts.items()]
    out.sort(key=_by_prob_then_token)
    return out


def fallback_candidates(repo: Repository, attr: int, k: int = FALLBACK_TOP_K) -> list:
    """Uniform distribution over the k most frequent domain values, in token order."""
    top = repo.top_values(attr, k)
    p = 1.0 / len(top)
    return [(val, p) for val in top]


def shared_fallback(repo: Repository, attr: int) -> tuple:
    """``(fallback_candidates(repo, attr), the union of their tokens)``, built
    once per repository and attribute and kept in ``repo.fallbacks``; callers
    share both and must not change them."""
    fb = repo.fallbacks.get(attr)
    if fb is None:
        cands = fallback_candidates(repo, attr)
        fb = repo.fallbacks[attr] = (cands, frozenset().union(*(v for v, _ in cands)))
    return fb


@dataclass
class ImputedTuple:
    """A probabilistic tuple: per-missing-attribute weighted candidate values.

    Each candidate probability lies in (0, 1] and each attribute's
    probabilities sum to 1.  A complete tuple has no candidate entries and
    one instance; an incomplete one has an instance per combination of its
    attributes' options, at the product of their probabilities.
    ``options`` and ``token_unions()`` are built on first read, unless the
    maker hands them over, as ``impute_tuple`` does; the constructor checks
    (``_check``) only a tuple whose options were not handed over.  A
    candidate list, option list or token union may be shared with other
    tuples (a fallback attribute's is), so it is read, never changed.
    """

    base: StreamTuple
    per_attr_candidates: dict = field(default_factory=dict)  # attr -> [(value, prob)]
    fallback_attrs: frozenset = frozenset()
    _token_unions: Optional[list] = field(default=None, repr=False, compare=False)
    _options: Optional[list] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._options is None:
            self._check()

    def _check(self) -> None:
        """Raise ImputationFailed unless exactly the missing attributes hold a distribution."""
        missing = self.base.missing
        if self.per_attr_candidates.keys() != set(missing):
            raise ImputationFailed(
                f"tuple {self.base.rid}: candidates cover {sorted(self.per_attr_candidates)} "
                f"but missing attrs are {list(missing)}"
            )
        for j, cands in self.per_attr_candidates.items():
            if not cands:
                raise ImputationFailed(f"tuple {self.base.rid}: empty candidate list for attr {j}")
            total = 0.0
            for _, p in cands:
                if not 0.0 < p <= 1.0:  # NaN fails too
                    raise ImputationFailed(f"tuple {self.base.rid}: attr {j} has probability {p}")
                total += p
            if abs(total - 1.0) > PROB_TOL:
                raise ImputationFailed(f"tuple {self.base.rid}: attr {j} probs sum to {total}")

    @property
    def rid(self) -> str:
        return self.base.rid

    @property
    def stream_id(self) -> int:
        return self.base.stream_id

    @property
    def options(self) -> list:
        """Per attribute, its options as (value, prob) pairs: the present value
        at 1.0, or the candidates by descending probability, ties in token order."""
        if self._options is None:
            self._options = [
                [(v, 1.0)] if v is not None
                else sorted(self.per_attr_candidates[j], key=_by_prob_then_token)
                for j, v in enumerate(self.base.attrs)
            ]
        return self._options

    def instance_count(self) -> int:
        n = 1
        for cands in self.per_attr_candidates.values():
            n *= len(cands)
        return n

    def token_unions(self) -> list:
        """Per attribute, the union of the tokens of all its values (a present value as it is)."""
        if self._token_unions is None:
            self._token_unions = [
                v if v is not None
                else frozenset().union(*(c for c, _ in self.per_attr_candidates[j]))
                for j, v in enumerate(self.base.attrs)
            ]
        return self._token_unions


def _by_prob_then_token(vp) -> tuple:
    return -vp[1], token_key(vp[0])


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
    docstring) without changing the result.  An attribute no rule yields a
    candidate for takes its ``shared_fallback`` and is flagged.  The tuple is
    handed its options and token unions, already in ``options`` order, and
    is not checked again.
    """
    if not r.missing:
        return ImputedTuple(base=r)
    attrs = r.attrs
    options = [None if v is None else [(v, 1.0)] for v in attrs]
    unions = list(attrs)
    per_attr: dict = {}
    fallback: set = set()
    for j in r.missing:
        applicable = [rule for rule in rules_by_dep.get(j, ()) if rule.applicable_to(r)]
        cands = impute_multi_rule(r, applicable, repo, dist, samples_per_rule, dr_index)
        if cands:
            unions[j] = frozenset().union(*(v for v, _ in cands))
        else:
            cands, unions[j] = shared_fallback(repo, j)
            fallback.add(j)
        per_attr[j] = options[j] = cands
    return ImputedTuple(
        base=r,
        per_attr_candidates=per_attr,
        fallback_attrs=frozenset(fallback),
        _token_unions=unions,
        _options=options,
    )
