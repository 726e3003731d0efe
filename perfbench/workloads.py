"""Seeded workloads for the layered benchmark and their ground truth.

Every workload uses d=4, a vocabulary of 120 tokens, 16 topics, the query
keyword ``topic0``, alpha=0.2 and one missing attribute per injected tuple.
The workload seed drives both the generator and the missing-value injection;
the engine only ever sees the generated tuples.

Every workload has at least 1000 steps, so the 99th percentile of one pass's
step times has at least ten steps beyond it.  The slowest steps of a pass are
those in which the interpreter runs a full garbage collection over the
growing distance memo: about 10 of them on ``impute_heavy`` at 1000 steps,
where the 99th percentile then fell on the edge between those steps and the
rest and moved by 0.24 (IQR/median) across seeds.  ``impute_heavy`` has 1500
steps, which puts 15 steps beyond the percentile and the percentile itself
among the ordinary slow steps.  The repositories are smaller than a
full-scale run (90 and 150 rows) so that one benchmark run, including the
oracle reference for a fresh seed, takes about a minute on two shared cores.
They also keep the memo, about 1.2M entries on ``impute_heavy`` and 0.75M on
``tight_rho``, clear of a dict-resize step (at 0.70M and 1.40M entries) on
the seeds tried, so ``peak_rss_mb`` does not jump by tens of MB between seeds.
The shapes (window against length, missing rate, rho, stream count) are what
each workload is about.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from teride.cli import gen_synthetic, inject_missing
from teride.model import QueryConfig, Repository

D = 4
VOCAB = 120
TOPICS = 16
KEYWORDS = frozenset({"topic0"})
ALPHA = 0.2
MISSING_ATTRS = 1


@dataclass(frozen=True)
class Workload:
    """One workload shape; ``window`` of None means the window spans the whole stream."""

    name: str
    why: str
    streams: int
    length: int
    repo_size: int
    xi: float
    rho: float
    window: int | None

    @property
    def window_size(self) -> int:
        return self.length if self.window is None else self.window

    def key(self) -> str:
        """Hash of every field that changes the generated inputs or the query."""
        shape = {k: v for k, v in asdict(self).items() if k != "why"}
        blob = json.dumps(
            [shape, D, VOCAB, TOPICS, sorted(KEYWORDS), ALPHA, MISSING_ATTRS], sort_keys=True
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="impute_heavy",
            why="60% of arrivals are imputed and a 30-tuple window evicts every step: rule "
            "selection, DR retrieval and imputation take ~30% of online time, grid writes ~7%",
            streams=3,
            length=1500,
            repo_size=90,
            xi=0.6,
            rho=0.6,
            window=30,
        ),
        Workload(
            name="tight_rho",
            why="rho=0.85 is where the size and pivot bounds prune, and a half-stream window "
            "evicts from large grid cells: eviction is ~30% of online time",
            streams=2,
            length=1000,
            repo_size=150,
            xi=0.05,
            rho=0.85,
            window=500,
        ),
    )
}


@dataclass
class Inputs:
    repo: Repository
    config: QueryConfig
    steps: list  # [(ts, [StreamTuple, ...])] in timestamp order
    truth: set  # ground-truth match keys (ts, rid_a, rid_b)

    @property
    def arrivals(self) -> int:
        return sum(len(batch) for _, batch in self.steps)


def make_inputs(w: Workload, seed: int) -> Inputs:
    repo_rows, streams = gen_synthetic(
        d=D,
        n_streams=w.streams,
        length=w.length,
        vocab_size=VOCAB,
        topic_count=TOPICS,
        seed=seed,
        repo_size=w.repo_size,
    )
    complete = [t for rows in streams for t in rows]
    trace = inject_missing(complete, w.xi, MISSING_ATTRS, seed=seed + 1)
    by_ts: dict = {}
    for r in trace:
        by_ts.setdefault(r.arrival_time, []).append(r)
    config = QueryConfig(
        keywords=KEYWORDS, d=D, rho=w.rho, alpha=ALPHA, window_size=w.window_size
    )
    return Inputs(
        repo=Repository(repo_rows),
        config=config,
        steps=[(ts, by_ts[ts]) for ts in sorted(by_ts)],
        truth=ground_truth(complete, KEYWORDS),
    )


def ground_truth(complete_tuples, keywords: frozenset) -> set:
    """Match keys of the generator's true duplicates that the query asks for.

    The generator gives every stream one copy of entity t, all stamped t+1,
    and puts the entity's topic token in attribute 0 of every copy.  A true
    match is two copies of one entity on different streams whose topic is a
    query keyword; the key is ordered by stream id, as the engine orders it.
    """
    by_ts: dict = {}
    for r in complete_tuples:
        by_ts.setdefault(r.arrival_time, []).append(r)
    keys = set()
    for ts, copies in by_ts.items():
        copies = sorted(copies, key=lambda r: (r.stream_id, r.rid))
        for i, a in enumerate(copies):
            if a.attrs[0].isdisjoint(keywords):
                continue
            for b in copies[i + 1 :]:
                if b.stream_id != a.stream_id:
                    keys.add((ts, a.rid, b.rid))
    return keys

