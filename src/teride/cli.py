"""Command-line surface: rule detection, pivot selection, data preparation, runs, benchmarks.

Exit codes: 0 on success, 2 on configuration/usage errors, 3 on I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

from .cdd import detect_cdds, rules_from_text, rules_to_text
from .engine import MODE_ENGINE, MODE_NOINDEX, MODES, Engine, check_pivots, check_rules
from .errors import ConfigError, InvalidRate, TerideError
from .metric import DistanceFn
from .model import (
    MISSING_CELL,
    QueryConfig,
    Repository,
    StreamTuple,
    read_csv,
    read_repository,
    tokenize,
    write_tuples,
)
from .pivot import (
    DEFAULT_CNTMAX,
    DEFAULT_EMIN,
    DEFAULT_P,
    pivots_from_text,
    pivots_to_text,
    select_pivots,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def inject_missing(tuples, rate: float, attrs_per_tuple: int, seed: int) -> list:
    """Mark ``attrs_per_tuple`` attributes missing in a seeded uniform sample of tuples."""
    if not (0.0 <= rate <= 1.0):
        raise InvalidRate(f"missing rate must be in [0, 1], got {rate}")
    if not tuples:
        return []
    d = tuples[0].d
    if not (0 <= attrs_per_tuple < d):
        raise InvalidRate(f"missing attribute count must be in [0, {d}), got {attrs_per_tuple}")
    rng = random.Random(seed)
    n_pick = int(rate * len(tuples))
    picked = set(rng.sample(range(len(tuples)), n_pick))
    out = []
    for i, r in enumerate(tuples):
        if i in picked and attrs_per_tuple:
            holes = set(rng.sample(range(d), attrs_per_tuple))
            attrs = tuple(None if j in holes else v for j, v in enumerate(r.attrs))
            out.append(
                StreamTuple(rid=r.rid, stream_id=r.stream_id, arrival_time=r.arrival_time, attrs=attrs)
            )
        else:
            out.append(r)
    return out


def gen_synthetic(
    d: int,
    n_streams: int,
    length: int,
    vocab_size: int,
    topic_count: int,
    seed: int,
    repo_size: int | None = None,
):
    """Deterministic clustered corpus: a complete repository plus noisy stream copies.

    Entity ``e`` has topic ``e % topic_count``.  Each of its attribute values
    is three tokens: attribute 0 holds the topic token and two vocabulary
    tokens, every other attribute three vocabulary tokens, all drawn
    independently, so no attribute depends on another.  Every stream holds one
    noisy copy of entity ``t`` at time ``t + 1``: each attribute but 0 gains at
    most one random token with probability 0.3, so cross-stream duplicates
    keep most of each value's tokens.  Repository row ``i`` is one more noisy
    copy of stream entity ``i % length`` (a fresh entity when ``length`` is
    0), so the repository overlaps the streams.

    Raises ConfigError for arguments it cannot honour: ``d``, ``n_streams``
    and ``topic_count`` below 1, ``vocab_size`` below 3 (a value needs three
    distinct tokens) and a negative ``length`` or ``repo_size``.
    """
    if d < 1 or n_streams < 1 or topic_count < 1:
        raise ConfigError(
            f"d, streams and topics must be >= 1, got {d}, {n_streams}, {topic_count}"
        )
    if vocab_size < 3:
        raise ConfigError(f"vocab must be >= 3, got {vocab_size}")
    if length < 0 or (repo_size is not None and repo_size < 0):
        raise ConfigError(f"length and repo size must be >= 0, got {length}, {repo_size}")
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    topics = [f"topic{t}" for t in range(topic_count)]
    if repo_size is None:
        repo_size = max(length, 8)

    def make_entity(eid: int):
        topic = topics[eid % topic_count]
        attrs = []
        for j in range(d):
            tokens = {topic} if j == 0 else set()
            while len(tokens) < 3:
                tokens.add(rng.choice(vocab))
            attrs.append(frozenset(tokens))
        return tuple(attrs)

    entities = [make_entity(e) for e in range(length)]

    def noisy(attrs):
        out = []
        for j, v in enumerate(attrs):
            tokens = set(v)
            # perturb at most one token on a minority of values; duplicates
            # stay dominated by shared tokens
            if j > 0 and rng.random() < 0.3:
                tokens.add(rng.choice(vocab))
            out.append(frozenset(tokens))
        return tuple(out)

    streams = []
    for sid in range(n_streams):
        rows = [
            StreamTuple(
                rid=f"s{sid}t{t}",
                stream_id=sid,
                arrival_time=t + 1,
                attrs=noisy(entities[t]),
            )
            for t in range(length)
        ]
        streams.append(rows)

    repo_rows = [
        StreamTuple(
            rid=f"r{i}",
            stream_id=-1,
            arrival_time=0,
            attrs=noisy(entities[i % max(1, length)]) if length else make_entity(i),
        )
        for i in range(repo_size)
    ]
    return repo_rows, streams


def subsample_repo(repo: Repository, ratio: float, seed: int) -> Repository:
    """Seeded shuffle, then keep the first ceil(ratio * |R|) rows."""
    if not (0.0 < ratio <= 1.0):
        raise InvalidRate(f"repository ratio must be in (0, 1], got {ratio}")
    if ratio == 1.0:
        return repo
    rows = list(repo.samples)
    random.Random(seed).shuffle(rows)
    keep = max(1, math.ceil(len(rows) * ratio))
    return Repository(rows[:keep])


def f_score(result_keys: set, truth_keys: set) -> float | None:
    if not truth_keys and not result_keys:
        return 1.0
    if not result_keys or not truth_keys:
        return 0.0
    tp = len(result_keys & truth_keys)
    precision = tp / len(result_keys)
    recall = tp / len(truth_keys)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _load_match_keys(path) -> set:
    keys = set()
    # read() turns each line end into "\n", so lines number as iterating the file would
    for lineno, line in enumerate(_read_file(path, lambda text: text.split("\n")), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if not isinstance(rec, dict):
            raise ConfigError(f"{path}:{lineno}: expected a JSON object")
        if rec.get("kind") == "match":
            try:
                keys.add((rec["ts"], rec["rid_a"], rec["rid_b"]))
            except KeyError as exc:
                raise ConfigError(f"{path}:{lineno}: match record lacks {exc}") from exc
            except TypeError as exc:  # an unhashable ts or rid
                raise ConfigError(f"{path}:{lineno}: bad match record: {exc}") from exc
    return keys


def _read_file(path, parse):
    """What ``parse`` makes of a text file's contents; an error in them names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (TerideError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _write_out(path, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_engine(args, mode: str) -> tuple:
    repo = read_repository(args.repo)
    if args.repo_ratio != 1.0:
        repo = subsample_repo(repo, args.repo_ratio, args.seed)
    config = QueryConfig(
        keywords=tokenize(args.keywords),
        d=repo.d,
        rho=args.rho,
        alpha=args.alpha,
        window_size=args.window,
    )
    dist = DistanceFn()
    rules = pivots = None
    if args.rules:
        rules = _read_file(args.rules, lambda text: check_rules(rules_from_text(text), repo.d))
    if args.pivots:
        pivots = _read_file(args.pivots, lambda text: check_pivots(pivots_from_text(text), repo.d))
    trace = []
    for path in args.streams:
        d, tuples = read_csv(path)
        if d != repo.d:
            raise ConfigError(f"{path}: {d} attributes per tuple, the repository has {repo.d}")
        trace.extend(tuples)
    engine = Engine(repo, config, dist=dist, mode=mode, rules=rules, pivots=pivots)
    return engine, trace


def _cmd_detect(args) -> int:
    repo = read_repository(args.repo)
    rules = detect_cdds(
        repo,
        DistanceFn(),
        max_interval_width=args.max_interval_width,
        min_support=args.min_support,
        max_determinants=args.max_determinants,
    )
    _write_out(args.out, rules_to_text(rules))
    return EXIT_OK


def _cmd_pivots(args) -> int:
    repo = read_repository(args.repo)
    pivots = select_pivots(repo, P=args.p, eMin=args.emin, cntMax=args.cntmax)
    _write_out(args.out, pivots_to_text(pivots))
    return EXIT_OK


def _cmd_inject(args) -> int:
    d, tuples = read_csv(args.input)
    injected = inject_missing(tuples, args.missing_rate, args.missing_attrs, args.seed)
    write_tuples(args.out, injected, d)
    return EXIT_OK


def _cmd_gen(args) -> int:
    repo_rows, streams = gen_synthetic(
        d=args.d,
        n_streams=args.streams,
        length=args.length,
        vocab_size=args.vocab,
        topic_count=args.topics,
        seed=args.seed,
        repo_size=args.repo_size,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    write_tuples(os.path.join(args.out_dir, "repository.csv"), repo_rows, args.d)
    for sid, rows in enumerate(streams):
        write_tuples(os.path.join(args.out_dir, f"stream_{sid}.csv"), rows, args.d)
    return EXIT_OK


def _cmd_run(args) -> int:
    truth = _load_match_keys(args.groundtruth) if args.groundtruth else None
    engine, trace = _build_engine(args, args.mode)
    t0 = time.perf_counter()
    results = engine.run(trace)
    wall = time.perf_counter() - t0
    _write_out(args.results, results.to_jsonl())
    metrics = engine.metrics()
    metrics["wall_clock"] = round(wall, 6)
    metrics["f_score"] = None if truth is None else f_score(results.match_keys(), truth)
    if args.metrics:
        _write_out(args.metrics, json.dumps(metrics, indent=2) + "\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    report = {"schema": 1, "modes": {}}
    walls = {}
    for mode in (MODE_ENGINE, MODE_NOINDEX):
        engine, trace = _build_engine(args, mode)
        t0 = time.perf_counter()
        engine.run(trace)
        walls[mode] = time.perf_counter() - t0
        m = engine.metrics()
        m["wall_clock"] = round(walls[mode], 6)
        report["modes"][mode] = m
    report["speedup"] = (walls[MODE_NOINDEX] / walls[MODE_ENGINE]) if walls[MODE_ENGINE] else None
    _write_out(args.metrics, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--repo", required=True)
    p.add_argument("--streams", nargs="+", required=True)
    p.add_argument("--keywords", required=True, help="topic keywords, tokenized like attribute values")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--repo-ratio", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rules", default=None, help="precomputed rule file")
    p.add_argument("--pivots", default=None, help="precomputed pivot file")
    p.add_argument("--metrics", default=None, help="metrics JSON output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="teride", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="mine rules from a complete repository")
    p.add_argument("--repo", required=True)
    p.add_argument("--max-interval-width", type=float, default=0.3)
    p.add_argument("--min-support", type=int, default=3)
    p.add_argument("--max-determinants", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("pivots", help="select pivots from a repository")
    p.add_argument("--repo", required=True)
    p.add_argument("--p", type=int, default=DEFAULT_P)
    p.add_argument("--emin", type=float, default=DEFAULT_EMIN)
    p.add_argument("--cntmax", type=int, default=DEFAULT_CNTMAX)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pivots)

    p = sub.add_parser("inject", help=f"replace attribute cells with {MISSING_CELL}")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--missing-rate", type=float, required=True)
    p.add_argument("--missing-attrs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("gen", help="generate a synthetic repository and streams")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--streams", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--repo-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run one query over stream files")
    _add_run_flags(p)
    p.add_argument("--mode", choices=MODES, default=MODE_ENGINE)
    p.add_argument("--results", default=None, help="results JSONL output path")
    p.add_argument("--groundtruth", default=None, help="JSONL of expected match events")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="compare engine and no-index wall clocks")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except OSError as exc:
        print(f"teride: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TerideError, ValueError) as exc:
        print(f"teride: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
