"""Shared fixtures: the numeric reference repository and workload builders."""

from __future__ import annotations

import itertools
import os

import pytest
from hypothesis import settings

from teride.cli import gen_synthetic, inject_missing
from teride.metric import DistanceFn
from teride.model import Repository, StreamTuple, token_key

# HYPOTHESIS_PROFILE=ci draws the same examples on every run
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def ts(*tokens):
    """Shorthand for a token-set value."""
    return frozenset(tokens)


def make_tuple(rid, stream_id, t, *values):
    """Build a StreamTuple from token sets (None stays missing)."""
    return StreamTuple(rid=rid, stream_id=stream_id, arrival_time=t, attrs=tuple(values))


@pytest.fixture
def numeric_repo():
    """Three-attribute repository with numeric B/C cells treated as singleton tokens."""
    rows = [
        make_tuple("s1", -1, 0, ts("a1"), ts("0.2"), ts("0.1")),
        make_tuple("s2", -1, 0, ts("a1"), ts("0.3"), ts("0.2")),
        make_tuple("s3", -1, 0, ts("a1"), ts("0.5"), ts("0.35")),
        make_tuple("s4", -1, 0, ts("a2"), ts("0.7"), ts("0.7")),
    ]
    return Repository(rows)


@pytest.fixture
def schema_checks(monkeypatch):
    """Calls per rule and pivot schema check, by check name, made through
    ``teride.engine`` or any module that imports the check from it."""
    import teride.cli
    import teride.engine

    calls = {"check_rules": 0, "check_pivots": 0}
    for name in calls:
        def counted(*args, _check=getattr(teride.engine, name), _name=name):
            calls[_name] += 1
            return _check(*args)

        for module in (teride.engine, teride.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def absdiff():
    return DistanceFn(DistanceFn.ABSDIFF)


def make_workload(
    seed: int,
    n_streams: int = 2,
    d: int = 3,
    length: int = 30,
    vocab: int = 40,
    topics: int = 3,
    xi: float = 0.3,
    m: int = 1,
    repo_size: int = 40,
):
    """Seeded synthetic repository + injected stream trace."""
    repo_rows, streams = gen_synthetic(
        d=d,
        n_streams=n_streams,
        length=length,
        vocab_size=vocab,
        topic_count=topics,
        seed=seed,
        repo_size=repo_size,
    )
    trace = [t for rows in streams for t in rows]
    trace = inject_missing(trace, xi, m, seed=seed + 1)
    return Repository(repo_rows), trace


def enumerate_instances(it):
    """Every instance of an imputed tuple as (complete StreamTuple, prob), by brute force.

    Each attribute's options are its present value at probability 1, or its
    candidates by descending probability, ties in token order; the instances
    are the ``itertools.product`` of the options, each at the product of its
    options' probabilities in attribute order, sorted by descending
    probability, ties in product order.
    """
    options = [
        [(v, 1.0)]
        if v is not None
        else sorted(it.per_attr_candidates[j], key=lambda vp: (-vp[1], token_key(vp[0])))
        for j, v in enumerate(it.base.attrs)
    ]
    instances = []
    for combo in itertools.product(*options):
        p = 1.0
        for _, q in combo:
            p *= q
        base = it.base
        attrs = tuple(v for v, _ in combo)
        instances.append(
            (StreamTuple(rid=base.rid, stream_id=base.stream_id, arrival_time=base.arrival_time, attrs=attrs), p)
        )
    instances.sort(key=lambda inst: -inst[1])
    return instances


def naive_pair_probability(it_i, it_j, gamma, keywords, dist):
    """Independent exhaustive evaluation of the matching probability.

    Enumerates the full cross product of instances, checks the topic keyword
    and strict similarity conditions directly, and sums joint probabilities.
    """
    total = 0.0
    for inst_a, p_a in enumerate_instances(it_i):
        for inst_b, p_b in enumerate_instances(it_j):
            has_kw = any(not v.isdisjoint(keywords) for v in inst_a.attrs) or any(
                not v.isdisjoint(keywords) for v in inst_b.attrs
            )
            sim = sum(dist.sim(x, y) for x, y in zip(inst_a.attrs, inst_b.attrs))
            if has_kw and sim > gamma + 1e-9:
                total += p_a * p_b
    return total


def reference_instance_level_scan(it_i, it_j, gamma, alpha, keywords, dist):
    """Instance-level scan that checks every instance pair on its own values.

    The reference for ``teride.prune.instance_level_scan``'s decision: it
    walks the instance pairs in descending joint probability (stable) and
    stops pruned once the confirmed mass plus the unexamined mass is at most
    alpha + 1e-9, with each pair's keyword test and similarity taken directly
    from the two instances' attribute values.  Returns (pruned, confirmed);
    a scan that ends unpruned has confirmed the exact probability.
    """
    inst_i = enumerate_instances(it_i)
    inst_j = enumerate_instances(it_j)
    pairs = sorted(
        ((pi * pj, a, b) for a, (_, pi) in enumerate(inst_i) for b, (_, pj) in enumerate(inst_j)),
        key=lambda t: -t[0],
    )
    kw_i = [any(not v.isdisjoint(keywords) for v in t.attrs) for t, _ in inst_i]
    kw_j = [any(not v.isdisjoint(keywords) for v in t.attrs) for t, _ in inst_j]
    confirmed = 0.0
    seen_mass = 0.0
    for mass, a, b in pairs:
        ti, tj = inst_i[a][0], inst_j[b][0]
        if (kw_i[a] or kw_j[b]) and sum(
            dist.sim(x, y) for x, y in zip(ti.attrs, tj.attrs)
        ) > gamma + 1e-9:
            confirmed += mass
        seen_mass += mass
        if confirmed + (1.0 - seen_mass) <= alpha + 1e-9:
            return True, confirmed
    return False, confirmed
