"""The benchmark's two workload shapes, run in ``engine`` mode at their default
seeds, write the event streams the ``oracle`` mode wrote for them.

The inputs are rebuilt here as the benchmark builds them (``gen_synthetic``,
then ``inject_missing`` with the seed after the workload's), so a change in
the order of the kernel's float operations fails this test and not only the
benchmark's correctness check.  Both runs take about half a second together.
"""

import hashlib

import pytest

from teride.cli import gen_synthetic, inject_missing
from teride.engine import Engine
from teride.model import QueryConfig, Repository

D, VOCAB, TOPICS, ALPHA = 4, 120, 16, 0.2
KEYWORDS = frozenset({"topic0"})

# name: (streams, length, repo_size, missing rate, rho, window, seed, sha256, matches)
SHAPES = {
    "impute_heavy": (
        3, 1500, 90, 0.6, 0.6, 30, 1,
        "7f6a56e0c8e78688e4502916927bee2de4a947ec81331c3c65c31e51b8b5b1a8", 650,
    ),
    "tight_rho": (
        2, 1000, 150, 0.05, 0.85, 500, 3,
        "f1f047d9717a52a10dacc562feb4eaef13b3fff32659b32fcefdf0674cabf236", 51,
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_engine_events_equal_the_pinned_oracle_digest(name):
    streams, length, repo_size, xi, rho, window, seed, digest, matches = SHAPES[name]
    repo_rows, rows = gen_synthetic(
        d=D,
        n_streams=streams,
        length=length,
        vocab_size=VOCAB,
        topic_count=TOPICS,
        seed=seed,
        repo_size=repo_size,
    )
    trace = inject_missing([t for stream in rows for t in stream], xi, 1, seed=seed + 1)
    config = QueryConfig(keywords=KEYWORDS, d=D, rho=rho, alpha=ALPHA, window_size=window)
    results = Engine(Repository(repo_rows), config, mode="engine").run(trace)
    assert len(results.matches()) == matches
    assert hashlib.sha256(results.to_jsonl().encode()).hexdigest() == digest
