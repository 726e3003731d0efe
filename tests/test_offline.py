"""Offline stages against pinned outputs and brute-force references.

``detect_cdds`` counts sample pairs by profile and ``select_pivots`` buckets
candidates through similarity-key postings; both skip the distances between
values that share no key (``DistanceFn.keys``).  The references here compute
every pair's distance, and the digests pin the rules and pivots of the
benchmark-shaped repositories.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teride.cdd import (
    CONST,
    INTERVAL,
    MAX_DEP_LO,
    AttrConstraint,
    CddRule,
    detect_cdds,
    _sort_key,
    rules_to_text,
)
from teride.cli import gen_synthetic
from teride.engine import Engine
from teride.errors import NoRulesFound
from teride.metric import DistanceFn, PairTable, as_number
from teride.model import QueryConfig, Repository, token_key
from teride.pivot import (
    PivotSet,
    _AttrSamples,
    entropy,
    joint_entropy,
    pivots_to_text,
    select_pivots,
)

from .conftest import make_tuple, make_workload, ts

_TOL = 1e-9


def _bucket_options(distance):
    b = min(int(distance / 0.1 + _TOL), 9)
    return [b, b - 1] if b > 0 and abs(distance - b * 0.1) <= _TOL else [b]


def reference_detect_cdds(repo, dist, max_interval_width=0.3, min_support=3, max_determinants=2):
    """Every pair ``i <= k`` on its own, with every distance computed."""
    samples, d = repo.samples, repo.d
    n = len(samples)
    frequent = [
        {v for v, c in Counter(s.attrs[x] for s in samples).items() if c >= min_support}
        for x in range(d)
    ]

    def options(i, k, x):
        a, b = samples[i].attrs[x], samples[k].attrs[x]
        opts = [("int", bucket) for bucket in _bucket_options(dist(a, b))]
        if a == b and a in frequent[x]:
            opts.append(("const", a))
        return opts

    rules = []
    for j in range(d):
        others = [x for x in range(d) if x != j]
        for size in range(1, max_determinants + 1):
            for det in itertools.combinations(others, size):
                deps: dict = {}
                for i in range(n):
                    for k in range(i, n):
                        dep = dist(samples[i].attrs[j], samples[k].attrs[j])
                        for combo in itertools.product(*(options(i, k, x) for x in det)):
                            deps.setdefault(combo, []).append(dep)
                for combo, ds in deps.items():
                    lo, hi = min(ds), max(ds)
                    if len(ds) < min_support or hi - lo > max_interval_width + _TOL:
                        continue
                    if lo > MAX_DEP_LO + _TOL:
                        continue
                    constraints = tuple(
                        AttrConstraint(attr=x, kind=CONST, value=payload)
                        if kind == "const"
                        else AttrConstraint(
                            attr=x,
                            kind=INTERVAL,
                            lo=round(payload * 0.1, 10),
                            hi=round(min((payload + 1) * 0.1, 1.0), 10),
                        )
                        for x, (kind, payload) in zip(det, combo)
                    )
                    rules.append(CddRule(constraints, dependent=j, dep_lo=lo, dep_hi=hi))
    return rules


def reference_select_pivots(repo, P=10, eMin=1.5, cntMax=3, dist=None):
    """Greedy selection scored by ``entropy`` and ``joint_entropy`` over every sample."""

    def argmax(values, score):
        best_v, best_s = None, None
        for v in sorted(values, key=token_key):
            s = score(v)
            if best_s is None or s > best_s + _TOL:
                best_v, best_s = v, s
        return best_v

    per_attr = []
    for attr in range(repo.d):
        domain = repo.domain(attr)
        chosen = [argmax(domain, lambda v: entropy(v, attr, repo, P, dist))]
        h = entropy(chosen[0], attr, repo, P, dist)
        while h < eMin and len(chosen) < cntMax:
            remaining = [v for v in domain if v not in chosen]
            if not remaining:
                break
            chosen.append(
                argmax(remaining, lambda v: joint_entropy(chosen + [v], attr, repo, P, dist))
            )
            h = joint_entropy(chosen, attr, repo, P, dist)
        per_attr.append(chosen)
    return PivotSet(per_attr=per_attr, bucket_count=P, entropy_threshold=eMin, max_pivots=cntMax)


def _rules_text(repo, dist, **kwargs):
    try:
        return rules_to_text(detect_cdds(repo, dist, **kwargs))
    except NoRulesFound:
        return None


def _reference_rules_text(repo, dist, **kwargs):
    # rules_to_text writes rules in the order given; detect_cdds gives them in
    # _sort_key order, so the reference is put in that order too
    rules = sorted(reference_detect_cdds(repo, dist, **kwargs), key=_sort_key)
    return rules_to_text(rules) if rules else None


def _numeric_repo(seed, n=14, d=3):
    """Singleton numeric values, so disjoint values lie at every absdiff distance."""
    rng = random.Random(seed)
    rows = [
        make_tuple(f"n{i}", -1, 0, *(ts(f"{rng.randrange(11) / 10:.1f}") for _ in range(d)))
        for i in range(n)
    ]
    return Repository(rows)


# under absdiff a finite number ("-0" too) lies at its numeric distance from
# every other number, and any other value ("nan", "inf", "1e400", a word, a
# multi-token set) at 1.0 from every value but itself
_MIXED_VALUES = (
    ("0.1",), ("0.35",), ("0.7",), ("1",), ("-0",), ("nan",), ("inf",), ("1e400",),
    ("a",), ("a", "b"), ("b", "0.1"),
)


def _mixed_repo(seed, n=14, d=3):
    """Numbers beside words, multi-token values and values that are not finite numbers."""
    rng = random.Random(seed)
    rows = [
        make_tuple(f"m{i}", -1, 0, *(ts(*rng.choice(_MIXED_VALUES)) for _ in range(d)))
        for i in range(n)
    ]
    return Repository(rows)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# rules and pivots text of the two benchmark workload shapes (d=4, vocab 120,
# 16 topics), recorded before pair profiles and token postings replaced the
# all-pairs scans
_RULES_SHA = "a00556084186d19af4835dee522694d95f7784ed1f270203380bdf03d3ed0c92"
PINNED = [
    # streams, length, repository rows, seed, rules sha256, pivots sha256
    (2, 1000, 150, 3, _RULES_SHA, "2b39e6c32806c108092726ca472d5ae715a6994f579699545a3ce9c86acc2a66"),
    (2, 1000, 150, 103, _RULES_SHA, "c14bcb938768ecdea5ac4ebc6a068a7a83a2bc1482a727ec41aeda72d9933c86"),
    (3, 1500, 90, 1, _RULES_SHA, "38408eea1587ba38aef492efe0f951f16cb7d2ba64f1e2cb96fd91441f7eb7ea"),
    (3, 1500, 90, 101, _RULES_SHA, "c7a915403c8c673c2e4ea06e72cac6a0a6a74da5df1c4d5db2f3748923077f43"),
]


def _ci_numeric_repo():
    """The repository of the CI "absdiff, pivot bound" smoke: attribute 0 keeps
    its tokens, and every other attribute becomes one number."""
    rows, _ = gen_synthetic(d=3, n_streams=2, length=60, vocab_size=40, topic_count=3, seed=7)
    return Repository([
        make_tuple(r.rid, r.stream_id, r.arrival_time, *(
            v if j == 0 else ts(f"{sum(int(t[1:]) for t in v) % 50 / 50:.2f}")
            for j, v in enumerate(r.attrs)
        ))
        for r in rows
    ])


def _tight_rho_repo():
    rows, _ = gen_synthetic(
        d=4, n_streams=2, length=1000, vocab_size=120, topic_count=16, seed=3, repo_size=150
    )
    return Repository(rows)


# absdiff rules and pivots text, recorded before similarity-key postings
# replaced the all-pairs scans under absdiff
ABSDIFF_PINNED = [
    # repository, rules sha256, pivots sha256
    (
        _ci_numeric_repo,
        "ef4c5aebe416f2abd05237a456a685fef73501fa349b9d998f045def5fc61c53",
        "bd17d4771828909a45775dd446239a496d8fe861f705dcf88bb000f1e36edaba",
    ),
    (
        _tight_rho_repo,
        "a00556084186d19af4835dee522694d95f7784ed1f270203380bdf03d3ed0c92",
        "f690b75c8d4f48730be4ec7798418c4f5461369966c2381c64adfb128a4706c8",
    ),
]


class TestPinnedOutputs:
    @pytest.mark.parametrize(
        "streams,length,rows,seed,rules_sha,pivots_sha",
        PINNED,
        ids=["tight_rho-3", "tight_rho-103", "impute_heavy-1", "impute_heavy-101"],
    )
    def test_rules_and_pivots_digests(self, streams, length, rows, seed, rules_sha, pivots_sha):
        repo_rows, _ = gen_synthetic(
            d=4, n_streams=streams, length=length, vocab_size=120, topic_count=16,
            seed=seed, repo_size=rows,
        )
        repo = Repository(repo_rows)
        dist = DistanceFn()
        assert _sha(rules_to_text(detect_cdds(repo, dist))) == rules_sha
        assert _sha(pivots_to_text(select_pivots(repo, dist=dist))) == pivots_sha

    @pytest.mark.parametrize(
        "make_repo,rules_sha,pivots_sha", ABSDIFF_PINNED, ids=["ci-numeric", "tight_rho-3"]
    )
    def test_absdiff_rules_and_pivots_digests(self, make_repo, rules_sha, pivots_sha):
        repo = make_repo()
        dist = DistanceFn(DistanceFn.ABSDIFF)
        assert _sha(rules_to_text(detect_cdds(repo, dist))) == rules_sha
        assert _sha(pivots_to_text(select_pivots(repo, dist=dist))) == pivots_sha


# (detect_cdds keyword arguments) exercised by the differential tests: the
# defaults, then wide intervals whose rules reach bucket 9 and distance 1.0
DETECT_ARGS = [
    {},
    {"min_support": 2, "max_interval_width": 1.0},
    {"min_support": 2, "max_interval_width": 0.5, "max_determinants": 3},
    {"max_determinants": 1, "max_interval_width": 1.0},
]

PIVOT_ARGS = [
    {},
    {"P": 2, "eMin": 5.0, "cntMax": 4},
    {"P": 3, "eMin": 3.0, "cntMax": 3},
    {"P": 10, "eMin": 10.0, "cntMax": 3},
    # more buckets than one byte holds
    {"P": 300, "eMin": 20.0, "cntMax": 3},
]


class TestMatchesBruteForce:
    # d=6 gives each determinant set more dependents to share its pass; it
    # runs on two vocabularies only, as the reference miner is slowest there
    @pytest.mark.parametrize(
        "d,vocab",
        [(4, 5), (4, 8), (4, 14), (4, 30), (6, 5), (6, 14)],
        ids=["5", "8", "14", "30", "d6-5", "d6-14"],
    )
    @pytest.mark.parametrize("kwargs", DETECT_ARGS, ids=range(len(DETECT_ARGS)))
    def test_rules_on_small_vocabularies(self, d, vocab, kwargs):
        # few tokens: many shared tokens, many distances on bucket edges
        repo, _ = make_workload(seed=20 + vocab, d=d, length=10, vocab=vocab, topics=2, repo_size=24)
        got = _rules_text(repo, DistanceFn(), **kwargs)
        assert got == _reference_rules_text(repo, DistanceFn(), **kwargs)

    @pytest.mark.parametrize("vocab", [5, 8, 14, 30])
    @pytest.mark.parametrize("kwargs", PIVOT_ARGS, ids=range(len(PIVOT_ARGS)))
    def test_pivots_on_small_vocabularies(self, vocab, kwargs):
        repo, _ = make_workload(seed=40 + vocab, d=3, length=10, vocab=vocab, topics=2, repo_size=30)
        got = select_pivots(repo, dist=DistanceFn(), **kwargs)
        want = reference_select_pivots(repo, dist=DistanceFn(), **kwargs)
        assert pivots_to_text(got) == pivots_to_text(want)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        vocab=st.integers(4, 20),
        rows=st.integers(2, 20),
        detect=st.sampled_from(DETECT_ARGS),
        pivot=st.sampled_from(PIVOT_ARGS),
    )
    def test_random_repositories(self, seed, vocab, rows, detect, pivot):
        repo, _ = make_workload(seed=seed, d=3, length=6, vocab=vocab, topics=2, repo_size=rows)
        assert _rules_text(repo, DistanceFn(), **detect) == _reference_rules_text(
            repo, DistanceFn(), **detect
        )
        got = select_pivots(repo, dist=DistanceFn(), **pivot)
        want = reference_select_pivots(repo, dist=DistanceFn(), **pivot)
        assert pivots_to_text(got) == pivots_to_text(want)

    @pytest.mark.parametrize("kwargs", DETECT_ARGS, ids=range(len(DETECT_ARGS)))
    def test_absdiff_rules(self, numeric_repo, kwargs):
        for repo in (numeric_repo, _numeric_repo(1), _numeric_repo(2), _mixed_repo(1), _mixed_repo(2)):
            got = _rules_text(repo, DistanceFn(DistanceFn.ABSDIFF), **kwargs)
            assert got == _reference_rules_text(repo, DistanceFn(DistanceFn.ABSDIFF), **kwargs)

    @pytest.mark.parametrize("kwargs", PIVOT_ARGS, ids=range(len(PIVOT_ARGS)))
    def test_absdiff_pivots(self, numeric_repo, kwargs):
        for repo in (numeric_repo, _numeric_repo(1), _numeric_repo(2), _mixed_repo(1), _mixed_repo(2)):
            got = select_pivots(repo, dist=DistanceFn(DistanceFn.ABSDIFF), **kwargs)
            want = reference_select_pivots(repo, dist=DistanceFn(DistanceFn.ABSDIFF), **kwargs)
            assert pivots_to_text(got) == pivots_to_text(want)


class TestScoresEqualReference:
    """Pivot scores through postings equal entropy() and joint_entropy() exactly,
    float for float, so ties break as they would over every sample."""

    @pytest.mark.parametrize("P", [2, 3, 10])
    def test_scores_are_bit_identical(self, P):
        repo, _ = make_workload(seed=77, d=3, length=10, vocab=12, topics=2, repo_size=40)
        self._check_scores(repo, P, DistanceFn())

    @pytest.mark.parametrize("P", [2, 3, 10])
    def test_absdiff_scores_are_bit_identical(self, P):
        # 40 samples over 11 values: equal samples share every group
        self._check_scores(_numeric_repo(77, n=40), P, DistanceFn(DistanceFn.ABSDIFF))
        self._check_scores(_mixed_repo(77, n=40), P, DistanceFn(DistanceFn.ABSDIFF))

    @staticmethod
    def _check_scores(repo, P, dist):
        for attr in range(repo.d):
            domain = repo.domain(attr)
            samples = _AttrSamples(PairTable.of(repo, attr, dist), P)
            for v in domain:
                assert samples.entropy(v) == entropy(v, attr, repo, P, dist)
            chosen = []
            for pivot in domain[:3]:
                samples.choose(pivot)
                chosen.append(pivot)
                for v in domain:
                    assert samples.joint_entropy(v) == joint_entropy(chosen + [v], attr, repo, P, dist)


class _CountingDistance(DistanceFn):
    """A distance that counts how often it is asked about each ordered pair of values."""

    def __init__(self, kind=DistanceFn.JACCARD):
        super().__init__(kind)
        self.asked = Counter()

    def __call__(self, a, b):
        self.asked[(a, b)] += 1
        return super().__call__(a, b)


def _counting_repo(kind):
    if kind == DistanceFn.JACCARD:
        return make_workload(seed=8, d=4, length=20, vocab=12, topics=2, repo_size=40)[0]
    return _numeric_repo(5, n=30)


class TestEachDistanceOnce:
    """Each unordered pair of values is asked once, and the auxiliary rounds
    read the buckets that pass computed."""

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    def test_each_value_candidate_pair_at_most_once_per_attribute(self, kind):
        repo = _counting_repo(kind)
        dist = _CountingDistance(kind)
        # eMin out of reach, so every attribute runs its auxiliary rounds
        pivots = select_pivots(repo, dist=dist, eMin=10.0, cntMax=4)
        assert all(pivots.n_pivots(x) > 1 for x in range(repo.d))
        attrs_asking = Counter(
            (a, b)
            for x in range(repo.d)
            for a in {s.attrs[x] for s in repo.samples}
            for b in repo.domain(x)
        )
        assert dist.asked
        over = {pair: n for pair, n in dist.asked.items() if n > attrs_asking[pair]}
        assert not over

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    def test_each_unordered_pair_at_most_once_per_attribute(self, kind):
        repo = _counting_repo(kind)
        dist = _CountingDistance(kind)
        pivots = select_pivots(repo, dist=dist, eMin=10.0, cntMax=4)
        assert all(pivots.n_pivots(x) > 1 for x in range(repo.d))
        # both distances are symmetric, so (a, b) and (b, a) are one question
        attrs_holding = Counter(
            frozenset(pair)
            for x in range(repo.d)
            for pair in itertools.combinations_with_replacement(repo.domain(x), 2)
        )
        asked = Counter()
        for (a, b), n in dist.asked.items():
            asked[frozenset((a, b))] += n
        assert any(len(pair) == 2 for pair in asked)
        over = {pair: n for pair, n in asked.items() if n > attrs_holding[pair]}
        assert not over


def _asked_per_unordered_pair(dist):
    asked = Counter()
    for (a, b), n in dist.asked.items():
        asked[frozenset((a, b))] += n
    return asked


class TestOneConstructionAsksEachPairOnce:
    """Rule mining and pivot selection read one table of key-sharing value
    pairs per attribute, so an engine construction asks each such pair once
    per attribute, and a second construction pays for its own table."""

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    @pytest.mark.parametrize("make_repo", [_mixed_repo, _numeric_repo], ids=["mixed", "numeric"])
    def test_each_key_sharing_pair_at_most_once_per_attribute(self, kind, make_repo):
        repo = make_repo(4, n=30)
        dist = _CountingDistance(kind)
        config = QueryConfig(keywords=frozenset({"a"}), d=repo.d, rho=0.6, alpha=0.2, window_size=10)
        # noindex builds no DR-index, whose main-pivot coordinates ask one
        # distance per sample outside mining and pivot selection
        Engine(repo, config, dist, mode="noindex")
        first = sum(dist.asked.values())
        asked = _asked_per_unordered_pair(dist)
        # both distances are symmetric, so (a, b) and (b, a) are one question
        sharing = Counter(
            frozenset(pair)
            for x in range(repo.d)
            for pair in itertools.combinations_with_replacement(repo.domain(x), 2)
            if not dist.keys(pair[0]).isdisjoint(dist.keys(pair[1]))
        )
        assert set(asked) == set(sharing)
        over = {pair: n for pair, n in asked.items() if n > sharing[pair]}
        assert not over
        # nothing is kept on the repository: the next construction asks as many
        dist.asked.clear()
        Engine(repo, config, dist, mode="noindex")
        assert sum(dist.asked.values()) == first


class _RecordingDistance(DistanceFn):
    """A distance that records every pair of values it is asked about."""

    def __init__(self, kind=DistanceFn.JACCARD):
        super().__init__(kind)
        self.asked = set()

    def __call__(self, a, b):
        self.asked.add((a, b))
        self.asked.add((b, a))
        return super().__call__(a, b)


def _value_pairs(repo):
    """Every (attribute, value, value) of the sample pairs i <= k."""
    samples = repo.samples
    return {
        (x, samples[i].attrs[x], samples[k].attrs[x])
        for i in range(len(samples))
        for k in range(i, len(samples))
        for x in range(repo.d)
    }


class TestDisjointPairsSkipped:
    def test_jaccard_never_asks_a_disjoint_pair(self):
        repo, _ = make_workload(seed=8, d=4, length=20, vocab=40, topics=4, repo_size=40)
        disjoint = {(a, b) for _, a, b in _value_pairs(repo) if a.isdisjoint(b)}
        assert disjoint  # the repository has pairs to skip
        for run in (
            lambda dist: detect_cdds(repo, dist, min_support=2, max_interval_width=1.0),
            lambda dist: select_pivots(repo, dist=dist, eMin=10.0),
        ):
            dist = _RecordingDistance()
            run(dist)
            assert dist.asked
            assert not any(a.isdisjoint(b) for a, b in dist.asked)

    def test_absdiff_asks_only_pairs_of_finite_numbers(self):
        repo = _mixed_repo(3, n=30)
        pairs = {(a, b) for _, a, b in _value_pairs(repo)}
        numbers = {(a, b) for a, b in pairs if as_number(a) is not None and as_number(b) is not None}
        others = {(a, b) for a, b in pairs if a != b} - numbers
        assert numbers and others  # the repository has pairs of both kinds
        for run in (
            lambda dist: detect_cdds(repo, dist, min_support=2, max_interval_width=1.0),
            lambda dist: select_pivots(repo, dist=dist, eMin=10.0),
        ):
            dist = _RecordingDistance(DistanceFn.ABSDIFF)
            run(dist)
            assert numbers <= dist.asked
            assert not others & dist.asked
