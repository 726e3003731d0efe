"""Streaming engine: ingest, imputation, candidate retrieval, and match reporting.

Every arrival runs one pipeline: the fetcher selects the rules that some
repository sample satisfies and exactly those samples, ``impute_tuple``
counts them, the step summarizes the tuple, the fetcher fetches candidates
among the other streams' live tuples, and the judge judges each pair.  A
mode is a fetcher plus a judge, both picked when the engine is built, and
all three modes give identical event streams:

* ``engine`` — the index fetcher (a hash join of the tuple's values on the
  rules' constant determinants, ``select_samples`` on the repository index's
  postings, one grid of all streams' live tuples) and the pruning cascade.
* ``noindex`` — the scan fetcher (every rule, ``select_samples`` on one scan
  per determinant, every live tuple), which applies the grid's keyword and
  shared-key filters pair by pair, and the same cascade, which starts at the
  single-option bound.
* ``oracle`` — every rule checked against every sample, every live tuple,
  and every pair fully evaluated; this is the reference implementation.

Each stream's count-based sliding window is one deque of its live tuple
summaries, oldest first (``Engine.windows``).  Per step, the whole batch of
arrivals is validated first against those deques, so a rejected step leaves
the state as it was: each arrival must be later than its stream's newest live
tuple, and a full window names its oldest tuple as the victim.  Then the
victims of all streams are evicted, then arrivals are processed in
(stream_id, rid) order; each arrival is probed against the live tuples of
the other streams.

The step, the fetchers and the judges look up the index builders,
``impute_tuple``, ``judge_pair`` and ``pair_probability`` in this module's
globals at each call, so a wrapper installed on one of those names
(``perfbench/tracer.py``) sees every call.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import deque
from dataclasses import dataclass

from .cdd import detect_cdds, satisfies_determinants
from .errors import (
    ConfigError,
    DuplicateTuple,
    NoRulesFound,
    OutOfOrderArrival,
    PivotSchemaMismatch,
    RuleSchemaMismatch,
)
from .grid import STAGE_KEYWORD, STAGE_TOKEN, ErGrid, TupleSummary, summarize, token_count_prunes
from .impute import ImputedTuple, impute_tuple
from .index import build_cdd_index, build_dr_index, scan_hits, select_samples
# unread and never called: kept so perfbench/tracer.py resolves the name
from .index import dr_query_box_for_rule  # noqa: F401
from .metric import DistanceFn, PairTables
from .model import QueryConfig, Repository, StreamTuple
from .pivot import PivotSet, select_pivots
from .prune import STAGE_REFINED, STAGES, PairVerdict, judge_pair, pair_probability, prob_reports
from .prune import keyword_prune, sim_ub_token

MODE_ENGINE = "engine"
MODE_NOINDEX = "noindex"
MODE_ORACLE = "oracle"
MODES = (MODE_ENGINE, MODE_NOINDEX, MODE_ORACLE)

KIND_MATCH = "match"
KIND_EXPIRE = "expire"


@dataclass(frozen=True)
class Event:
    """One output record: a reported pair or an expired tuple."""

    ts: int
    kind: str
    rid_a: str
    rid_b: str | None = None
    prob: float | None = None

    def to_json(self) -> str:
        prob = None if self.prob is None else float(f"{self.prob:.12g}")
        return json.dumps(
            {"ts": self.ts, "kind": self.kind, "rid_a": self.rid_a, "rid_b": self.rid_b, "prob": prob},
            separators=(", ", ": "),
        )


class MatchResultSet:
    """Ordered event log; two logs agree when their ``to_jsonl()`` bytes do."""

    def __init__(self):
        self.events: list = []

    def extend(self, events) -> None:
        self.events.extend(events)

    def matches(self) -> list:
        return [e for e in self.events if e.kind == KIND_MATCH]

    def match_keys(self) -> set:
        return {(e.ts, e.rid_a, e.rid_b) for e in self.matches()}

    def to_jsonl(self) -> str:
        return "".join(e.to_json() + "\n" for e in self.events)


@dataclass
class Precomputed:
    """Everything derived from the repository before any tuple arrives.

    ``fallback_bounds`` holds per attribute what the pair bounds read of the
    repository's shared fallback list, None until a summary first needs it
    (see ``TupleSummary``).
    """

    repo: Repository
    rules: list
    rules_by_dep: dict
    pivots: PivotSet
    fallback_bounds: list


def check_rules(rules: list, d: int) -> list:
    """The rules, unless one names an attribute outside ``[0, d)``."""
    for rule in rules:
        for x in (rule.dependent, *(c.attr for c in rule.determinants)):
            if not 0 <= x < d:
                raise RuleSchemaMismatch(f"rule names attribute {x}, outside [0, {d})")
    return rules


def check_pivots(pivots: PivotSet, d: int) -> PivotSet:
    """The pivots, unless they fail to give each of ``d`` attributes a non-empty pivot set."""
    if pivots.d != d or not all(pivots.per_attr):
        raise PivotSchemaMismatch(
            f"pivot counts per attribute {[len(p) for p in pivots.per_attr]} do not give"
            f" each of the repository's {d} attributes a pivot"
        )
    for x, plist in enumerate(pivots.per_attr):
        for a, piv in enumerate(plist):
            if not piv:
                raise PivotSchemaMismatch(f"pivot {a} of attribute {x} is an empty token set")
    return pivots


def precompute(
    repo: Repository,
    config: QueryConfig,
    dist: DistanceFn,
    rules: list | None = None,
    pivots: PivotSet | None = None,
) -> Precomputed:
    """Rules and pivots for the repository: mined and selected when not given,
    checked against its schema when given.

    Online code reads only each attribute's main pivot, so the pivots are
    selected with ``cntMax=1``, which runs no auxiliary round.  A given pivot
    set is checked whole, auxiliary pivots included.  Mining and selection
    read one table of key-sharing value pairs per attribute, built by the
    first of them to read it, so each such pair is asked one distance; the
    tables are dropped when this call returns.
    """
    if repo.d != config.d:
        raise ConfigError(f"repository has {repo.d} attributes, query expects {config.d}")
    pairs = PairTables(repo, dist)  # built attribute by attribute as first read
    if rules is None:
        try:
            rules = detect_cdds(repo, dist, pairs=pairs)
        except NoRulesFound:
            rules = []
    rules_by_dep: dict = {}
    for rule in check_rules(rules, repo.d):
        rules_by_dep.setdefault(rule.dependent, []).append(rule)
    if pivots is None:
        pivots = select_pivots(repo, cntMax=1, dist=dist, pairs=pairs)
    else:
        check_pivots(pivots, repo.d)
    return Precomputed(
        repo=repo,
        rules=rules,
        rules_by_dep=rules_by_dep,
        pivots=pivots,
        fallback_bounds=[None] * repo.d,
    )


class _ScanFetch:
    """``oracle``: check every rule against every sample, and scan every live tuple."""

    dr_index = None

    def __init__(self, pre: Precomputed, config: QueryConfig, dist: DistanceFn):
        self.pre = pre
        self.gamma = config.gamma
        self.dist = dist

    def select(self, r: StreamTuple) -> tuple:
        """What ``select_samples`` gives, by the reference that it must equal:
        a ``satisfies_determinants`` check of every rule r can use against
        every sample."""
        samples, dist = self.pre.repo.samples, self.dist
        rules_by_dep, samples_per_rule = {}, {}
        for j in r.missing:
            rules_by_dep[j] = []
            for rule in self.pre.rules_by_dep.get(j, ()):
                applicable = rule.applicable_to(r)
                got = applicable and [s for s in samples if satisfies_determinants(rule, r, s, dist)]
                if got:
                    rules_by_dep[j].append(rule)
                    samples_per_rule[rule] = got
        return rules_by_dep, samples_per_rule

    def add(self, summary: TupleSummary) -> None:
        pass

    def remove(self, victim: TupleSummary) -> None:
        pass

    def candidates(self, summary: TupleSummary, windows: dict, stage_counts: dict) -> list:
        sid = summary.stream_id
        return [s for other, q in windows.items() if other != sid for s in q]


class _FilteredScanFetch(_ScanFetch):
    """``noindex``: samples by ``scan_hits``, and the live tuples that pass the
    keyword test, then the shared-key test; the skips go to stage_counts, as
    the grid's do."""

    def select(self, r: StreamTuple) -> tuple:
        samples = self.pre.repo.samples
        return select_samples(self.pre.rules_by_dep, r, scan_hits(samples, self.dist), samples)

    def candidates(self, summary: TupleSummary, windows: dict, stage_counts: dict) -> list:
        found = []
        for s in super().candidates(summary, windows, stage_counts):
            if keyword_prune(summary, s):
                stage_counts[STAGE_KEYWORD] += 1
            elif token_count_prunes(sim_ub_token(summary, s), self.gamma):
                stage_counts[STAGE_TOKEN] += 1
            else:
                found.append(s)
        return found


class _IndexFetch:
    """``engine``: rules from each dependent's hash join on constant determinants
    (``CddIndex``), repository samples and dependent values from the DR-index, and
    candidates from one grid of every stream's live tuples."""

    def __init__(self, pre: Precomputed, config: QueryConfig, dist: DistanceFn):
        self.pre = pre
        self.gamma = config.gamma
        self.dr_index = build_dr_index(pre.repo, pre.pivots, dist)
        self.cdd_indexes = {j: build_cdd_index(rules) for j, rules in pre.rules_by_dep.items()}
        self.grid = ErGrid(config.d)

    def select(self, r: StreamTuple) -> tuple:
        """As ``noindex``, but with one bucket lookup per rule shape
        (``CddIndex.candidate_rules``) and ``DrIndex.hits``."""
        indexes = self.cdd_indexes
        candidates = {j: indexes[j].candidate_rules(r) for j in r.missing if j in indexes}
        return select_samples(candidates, r, self.dr_index.hits, self.dr_index.samples)

    def add(self, summary: TupleSummary) -> None:
        self.grid.insert(summary)

    def remove(self, victim: TupleSummary) -> None:
        self.grid.evict(victim.rid)

    def candidates(self, summary: TupleSummary, windows: dict, stage_counts: dict) -> list:
        """The grid's survivors in the other streams; its skip counts go to stage_counts."""
        cands, skipped = self.grid.candidates(summary, self.gamma)
        for stage, n in skipped.items():
            stage_counts[stage] += n
        return cands


def _judge_cascade(si, sj, gamma, alpha, keywords, dist) -> PairVerdict:
    """``engine`` and ``noindex``: the pruning cascade, whose unpruned scans are refined."""
    return judge_pair(si, sj, gamma, alpha, keywords, dist)


def _judge_exhaustive(si, sj, gamma, alpha, keywords, dist) -> PairVerdict:
    """``oracle``: every pair is refined."""
    prob = pair_probability(si.imputed, sj.imputed, gamma, keywords, dist)
    return PairVerdict(STAGE_REFINED, prob_reports(prob, alpha), prob)


class Engine:
    """One query's streaming state; feed arrivals through :meth:`step`."""

    def __init__(
        self,
        repo: Repository,
        config: QueryConfig,
        dist: DistanceFn | None = None,
        mode: str = MODE_ENGINE,
        rules: list | None = None,
        pivots: PivotSet | None = None,
    ):
        if mode not in MODES:
            raise ConfigError(f"unknown engine mode {mode!r}")
        self.mode = mode
        self.config = config
        self.dist = dist if dist is not None else DistanceFn()
        self.pre = precompute(repo, config, self.dist, rules=rules, pivots=pivots)
        fetcher = {MODE_ENGINE: _IndexFetch, MODE_NOINDEX: _FilteredScanFetch}.get(mode, _ScanFetch)
        self.fetch = fetcher(self.pre, config, self.dist)
        self.judge = _judge_exhaustive if mode == MODE_ORACLE else _judge_cascade
        self.windows: dict = {}  # stream_id -> deque of its live TupleSummaries, oldest first
        self.summaries: dict = {}  # rid -> TupleSummary (all live tuples)
        self.results = MatchResultSet()
        self.stage_counts = dict.fromkeys((*STAGES, STAGE_REFINED), 0)
        self.pairs_considered = 0
        self.matches_reported = 0
        self.arrivals = 0
        # seconds per phase; "imputation" includes impute_tuple's options and
        # token unions (a fallback attribute's are shared, built once per
        # repository) and summarize's token and key unions; the summary fields
        # the pair bounds compute on first read are charged to "er", and so is
        # listing a complete tuple's options under Jaccard
        self.timings = {"rule_selection": 0.0, "imputation": 0.0, "er": 0.0}
        self.step_times: list = []

    # -- ingest -------------------------------------------------------------

    def step(self, ts: int, arrivals) -> list:
        """Process all arrivals stamped ``ts``; returns the events it produced.

        A step that raises has changed nothing.
        """
        arrivals = sorted(arrivals, key=lambda r: (r.stream_id, r.rid))
        victims = self._validate(ts, arrivals)
        step_t0 = time.perf_counter()
        fetch, windows, repo = self.fetch, self.windows, self.pre.repo
        events = []
        # phase 1: evictions on every stream that is full and about to receive
        for victim in victims:
            windows[victim.stream_id].popleft()
            del self.summaries[victim.rid]
            fetch.remove(victim)
            events.append(Event(ts=ts, kind=KIND_EXPIRE, rid_a=victim.rid))
        # phase 2: impute, probe and insert in arrival order
        for r in arrivals:
            t0 = time.perf_counter()
            selection = None if r.is_complete() else fetch.select(r)
            t1 = time.perf_counter()
            if selection is None:
                imputed = ImputedTuple(base=r)
            else:
                rules_by_dep, samples_per_rule = selection
                imputed = impute_tuple(r, rules_by_dep, repo, self.dist, samples_per_rule, fetch.dr_index)
            summary = summarize(
                imputed, self.pre.pivots, self.config.keywords, self.dist, self.pre.fallback_bounds
            )
            t2 = time.perf_counter()
            events.extend(self._probe(ts, summary))
            t3 = time.perf_counter()
            self.timings["rule_selection"] += t1 - t0
            self.timings["imputation"] += t2 - t1
            self.timings["er"] += t3 - t2
            self.summaries[summary.rid] = summary
            windows.setdefault(summary.stream_id, deque()).append(summary)
            fetch.add(summary)
            self.arrivals += 1
        self.step_times.append(time.perf_counter() - step_t0)
        self.results.extend(events)
        return events

    def _validate(self, ts: int, arrivals: list) -> list:
        """Check a sorted batch against the current state; return the summaries it evicts."""
        for r in arrivals:
            if r.arrival_time != ts:
                raise ConfigError(f"tuple {r.rid} stamped {r.arrival_time}, step is {ts}")
            if r.d != self.config.d:
                raise ConfigError(f"tuple {r.rid} has {r.d} attributes, expected {self.config.d}")
        for a, b in zip(arrivals, arrivals[1:]):  # sorted, so one stream's arrivals are adjacent
            if a.stream_id == b.stream_id:
                raise OutOfOrderArrival(
                    f"stream {a.stream_id}: two arrivals at step {ts}, {a.rid} and {b.rid}"
                )
        victims = []
        for r in arrivals:
            q = self.windows.get(r.stream_id)
            if not q:
                continue
            if q[-1].arrival_time >= r.arrival_time:
                raise OutOfOrderArrival(
                    f"stream {r.stream_id}: arrival {r.arrival_time} not after {q[-1].arrival_time}"
                )
            if len(q) == self.config.window_size:
                victims.append(q[0])
        evicted = {v.rid for v in victims}
        seen: set = set()
        for r in arrivals:
            if r.rid in seen or (r.rid in self.summaries and r.rid not in evicted):
                raise DuplicateTuple(f"tuple {r.rid} is already live")
            seen.add(r.rid)
        return victims

    def run(self, tuples) -> MatchResultSet:
        """Feed a whole trace grouped by arrival time."""
        by_ts: dict = {}
        for r in tuples:
            by_ts.setdefault(r.arrival_time, []).append(r)
        for ts in sorted(by_ts):
            self.step(ts, by_ts[ts])
        return self.results

    # -- matching -----------------------------------------------------------

    def _probe(self, ts: int, summary: TupleSummary) -> list:
        """Judge the fetched candidates; the events of the pairs reported, by partner."""
        self.pairs_considered += len(self.summaries) - len(self.windows.get(summary.stream_id, ()))
        cfg, judge, counts = self.config, self.judge, self.stage_counts
        matched = []
        for other in self.fetch.candidates(summary, self.windows, counts):
            verdict = judge(summary, other, cfg.gamma, cfg.alpha, cfg.keywords, self.dist)
            counts[verdict.stage] += 1
            if verdict.matched:
                matched.append((other, verdict.prob))
        events = []
        for other, prob in sorted(matched, key=lambda mp: (mp[0].stream_id, mp[0].rid)):
            first, second = sorted((summary, other), key=lambda s: (s.stream_id, s.rid))
            events.append(Event(ts=ts, kind=KIND_MATCH, rid_a=first.rid, rid_b=second.rid, prob=prob))
        self.matches_reported += len(events)
        return events

    # -- reporting ----------------------------------------------------------

    def metrics(self) -> dict:
        pruned = sum(self.stage_counts[s] for s in STAGES)
        total = self.pairs_considered
        return {
            "schema": 3,
            "mode": self.mode,
            "arrivals": self.arrivals,
            "pairs_considered": total,
            "matches_reported": self.matches_reported,
            "rules": len(self.pre.rules),
            "stage_counts": dict(self.stage_counts),
            "pruning_power": (pruned / total) if total else 0.0,
            "pruning_power_by_stage": {
                s: (self.stage_counts[s] / total) if total else 0.0 for s in STAGES
            },
            "step_wall_clock": {
                "mean": statistics.fmean(self.step_times) if self.step_times else 0.0,
                "median": statistics.median(self.step_times) if self.step_times else 0.0,
            },
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }
