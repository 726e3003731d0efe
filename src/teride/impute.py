"""Imputation of missing attributes via rules, and probabilistic tuple expansion.

A missing attribute is imputed by one counting loop: for each rule, every
repository sample that satisfies the rule's determinants adds 1 to each
domain value whose distance to the sample's dependent value lies in the
rule's dependent interval.  The pooled counts are normalized into an
existence-probability distribution.

The loop only counts: the engine's fetcher hands it the rules that some
sample satisfies, each with exactly those samples (``select_samples``), and
resolves a rule's dependent interval around a sample's value to the domain
values it admits (``reach``), as it resolves determinants.

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

from .cdd import CddRule
from .errors import ImputationFailed
from .index import scan_hits, scan_reach, select_samples
from .metric import DistanceFn
from .model import Repository, StreamTuple, token_key

PROB_TOL = 1e-9
FALLBACK_TOP_K = 5


def impute_multi_rule(rules: Sequence[CddRule], samples_per_rule: dict, reach) -> list:
    """Pooled candidate probabilities over the rules, each counting the samples
    ``samples_per_rule`` gives it and the values ``reach`` admits (see the
    module docstring).

    Returns (value, prob) pairs sorted by descending probability, ties in
    token order, or [] when no value was counted.
    """
    counts: dict = {}
    for rule in rules:
        j, lo, hi = rule.dependent, rule.dep_lo, rule.dep_hi
        for s in samples_per_rule[rule]:
            for val in reach(j, s.attrs[j], lo, hi):
                counts[val] = counts.get(val, 0) + 1
    if not counts:
        return []
    denom = sum(counts.values())
    out = [(val, freq / denom) for val, freq in counts.items()]
    out.sort(key=_by_prob_then_token)
    return out


def fallback_candidates(repo: Repository, attr: int) -> list:
    """Uniform distribution over the ``FALLBACK_TOP_K`` most frequent domain values, in token order."""
    top = repo.top_values(attr, FALLBACK_TOP_K)
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
    reach=None,
) -> ImputedTuple:
    """Impute every missing attribute of r independently; complete tuples pass through.

    ``rules_by_dep`` and ``samples_per_rule`` are a fetcher's selection
    (``select_samples``) and ``reach`` its interval resolver; the scan's
    (``scan_reach``, ``scan_hits``) stand in for those not given, selecting
    from the rules of ``rules_by_dep``.  An attribute no rule yields a candidate for
    takes its ``shared_fallback`` and is flagged.  The tuple is handed its
    options and token unions, already in ``options`` order, and is not
    checked again.
    """
    if not r.missing:
        return ImputedTuple(base=r)
    reach = reach or scan_reach(repo, dist)
    if samples_per_rule is None:
        hits = scan_hits(repo.samples, reach)
        rules_by_dep, samples_per_rule = select_samples(rules_by_dep, r, hits, repo.samples)
    attrs = r.attrs
    options = [None if v is None else [(v, 1.0)] for v in attrs]
    unions = list(attrs)
    per_attr: dict = {}
    fallback: set = set()
    for j in r.missing:
        cands = impute_multi_rule(rules_by_dep.get(j, ()), samples_per_rule, reach)
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
