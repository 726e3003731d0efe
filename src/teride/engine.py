"""Streaming engine: ingest, imputation, candidate retrieval, and match reporting.

Every arrival runs one pipeline: the fetcher selects the rules and samples
that can impute it, ``impute_tuple`` imputes it from that selection, the
step summarizes it, the fetcher fetches candidates among the other streams'
live tuples, and the judge judges each pair.  A fetcher selects and fetches;
it does not impute.  A mode is a fetcher plus a judge, both picked when the
engine is built, and all three modes give identical event streams:

* ``engine`` — the index fetcher (a hash join of the tuple's values on the
  rules' constant determinants, the repository index's token and value
  postings, one grid synopsis per stream) and the pruning cascade.
* ``noindex`` — the scan fetcher (every rule, sample and live tuple) and the
  same cascade.
* ``oracle`` — the scan fetcher, and every pair is fully evaluated; this is
  the reference implementation.

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

from .cdd import detect_cdds
from .errors import ConfigError, DuplicateTuple, NoRulesFound, OutOfOrderArrival
from .grid import ErGrid, TupleSummary, summarize
from .impute import ImputedTuple, impute_tuple
from .index import build_cdd_index, build_dr_index
# unread: kept so perfbench/tracer.py resolves the name, but DrIndex.samples_per_rule
# calls the one in teride.index, so a wrap of this name records no call
from .index import dr_query_box_for_rule  # noqa: F401
from .metric import DistanceFn
from .model import QueryConfig, Repository, StreamTuple
from .pivot import PivotSet, select_pivots
from .prune import STAGE_REFINED, STAGES, PairVerdict, judge_pair, pair_probability, prob_reports

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
    """Ordered event log with set-style comparison helpers."""

    def __init__(self):
        self.events: list = []

    def extend(self, events) -> None:
        self.events.extend(events)

    def matches(self) -> list:
        return [e for e in self.events if e.kind == KIND_MATCH]

    def match_keys(self) -> set:
        return {(e.ts, e.rid_a, e.rid_b) for e in self.matches()}

    def diff(self, other: "MatchResultSet", prob_tol: float = 1e-9) -> list:
        """Human-readable differences between two event logs."""
        out = []
        if len(self.events) != len(other.events):
            out.append(f"event count {len(self.events)} != {len(other.events)}")
        for i, (a, b) in enumerate(zip(self.events, other.events)):
            if (a.ts, a.kind, a.rid_a, a.rid_b) != (b.ts, b.kind, b.rid_a, b.rid_b):
                out.append(f"event {i}: {a} != {b}")
            elif (a.prob is None) != (b.prob is None) or (
                a.prob is not None and abs(a.prob - b.prob) > prob_tol
            ):
                out.append(f"event {i}: prob {a.prob} != {b.prob}")
        return out

    def to_jsonl(self) -> str:
        return "".join(e.to_json() + "\n" for e in self.events)


@dataclass
class Precomputed:
    """Everything derived from the repository before any tuple arrives."""

    repo: Repository
    rules: list
    rules_by_dep: dict
    pivots: PivotSet


def check_rules(rules: list, d: int) -> list:
    """The rules, unless one names an attribute outside ``[0, d)``."""
    for rule in rules:
        for x in (rule.dependent, *(c.attr for c in rule.determinants)):
            if not 0 <= x < d:
                raise ConfigError(f"rule names attribute {x}, outside [0, {d})")
    return rules


def check_pivots(pivots: PivotSet, d: int) -> PivotSet:
    """The pivots, unless they fail to give each of ``d`` attributes a non-empty pivot set."""
    if pivots.d != d or not all(pivots.per_attr):
        raise ConfigError(
            f"pivot counts per attribute {[len(p) for p in pivots.per_attr]} do not give"
            f" each of the repository's {d} attributes a pivot"
        )
    for x, plist in enumerate(pivots.per_attr):
        for a, piv in enumerate(plist):
            if not piv:
                raise ConfigError(f"pivot {a} of attribute {x} is an empty token set")
    return pivots


def precompute(
    repo: Repository,
    config: QueryConfig,
    dist: DistanceFn,
    rules: list | None = None,
    pivots: PivotSet | None = None,
) -> Precomputed:
    if repo.d != config.d:
        raise ConfigError(f"repository has {repo.d} attributes, query expects {config.d}")
    if rules is None:
        try:
            rules = detect_cdds(repo, dist)
        except NoRulesFound:
            rules = []
    rules_by_dep: dict = {}
    for rule in check_rules(rules, repo.d):
        rules_by_dep.setdefault(rule.dependent, []).append(rule)
    if pivots is None:
        pivots = select_pivots(repo, dist=dist)
    else:
        check_pivots(pivots, repo.d)
    return Precomputed(repo=repo, rules=rules, rules_by_dep=rules_by_dep, pivots=pivots)


class _ScanFetch:
    """``noindex`` and ``oracle``: scan every rule, sample and live tuple; no index."""

    dr_index = None

    def __init__(self, pre: Precomputed, config: QueryConfig, dist: DistanceFn):
        self.pre = pre

    def select(self, r: StreamTuple) -> tuple:
        """Every rule, and no samples per rule: each rule scans the whole repository."""
        return self.pre.rules_by_dep, None

    def add(self, summary: TupleSummary) -> None:
        pass

    def remove(self, victim: TupleSummary) -> None:
        pass

    def candidates(self, summary: TupleSummary, windows: dict, stage_counts: dict) -> list:
        sid = summary.stream_id
        return [s for other, q in windows.items() if other != sid for s in q]


class _IndexFetch:
    """``engine``: rules from each dependent's hash join on constant determinants
    (``CddIndex``), repository samples and dependent values from the DR-index, and
    candidates from each stream's grid of live tuples."""

    def __init__(self, pre: Precomputed, config: QueryConfig, dist: DistanceFn):
        self.pre = pre
        self.config = config
        self.dist = dist
        self.dr_index = build_dr_index(pre.repo, pre.pivots, dist)
        self.cdd_indexes = {j: build_cdd_index(rules) for j, rules in pre.rules_by_dep.items()}
        self.grids: dict = {}  # stream_id -> ErGrid of its live tuples

    def select(self, r: StreamTuple) -> tuple:
        """The candidate rules per missing attribute, one bucket lookup per rule
        shape (``CddIndex.candidate_rules``), and the samples per rule, from one
        DR-index retrieval (``DrIndex.samples_per_rule``)."""
        rules_by_dep: dict = {}
        for j in r.missing_attrs():
            idx = self.cdd_indexes.get(j)
            rules_by_dep[j] = [] if idx is None else idx.candidate_rules(r)
        samples_per_rule = self.dr_index.samples_per_rule(
            [rule for rules in rules_by_dep.values() for rule in rules], r, self.pre.pivots, self.dist
        )
        return rules_by_dep, samples_per_rule

    def add(self, summary: TupleSummary) -> None:
        grid = self.grids.get(summary.stream_id)
        if grid is None:
            grid = self.grids[summary.stream_id] = ErGrid(self.config.d, self.dist)
        grid.insert(summary)

    def remove(self, victim: TupleSummary) -> None:
        self.grids[victim.stream_id].evict(victim.rid)

    def candidates(self, summary: TupleSummary, windows: dict, stage_counts: dict) -> list:
        """Survivors of every other stream's grid; the grids' skip counts go to stage_counts."""
        out = []
        for sid, grid in self.grids.items():
            if sid == summary.stream_id:
                continue
            cands, skipped = grid.candidates(summary, self.config.gamma)
            out.extend(cands)
            for stage, n in skipped.items():
                stage_counts[stage] += n
        return out


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
        fetcher = _IndexFetch if mode == MODE_ENGINE else _ScanFetch
        self.fetch = fetcher(self.pre, config, self.dist)
        self.judge = _judge_exhaustive if mode == MODE_ORACLE else _judge_cascade
        self.windows: dict = {}  # stream_id -> deque of its live TupleSummaries, oldest first
        self.summaries: dict = {}  # rid -> TupleSummary (all live tuples)
        self.results = MatchResultSet()
        self.stage_counts = dict.fromkeys((*STAGES, STAGE_REFINED), 0)
        self.pairs_considered = 0
        self.matches_reported = 0
        self.arrivals = 0
        # seconds per phase; "imputation" includes summarize, and the summary
        # fields computed on first read (by the pair bounds) are charged to "er"
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
            summary = summarize(imputed, self.pre.pivots, self.config.keywords, self.dist)
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
            "schema": 2,
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
