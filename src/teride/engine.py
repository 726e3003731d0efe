"""Streaming engine: ingest, imputation, candidate retrieval, and match reporting.

Three modes share identical semantics and must produce identical event streams:

* ``engine`` — rules are fetched through the rule trees, the repository
  samples a rule can use through the repository index's token and value
  postings, live tuples through the grid synopsis and its token postings,
  and candidate pairs run the pruning cascade before refinement.
* ``noindex`` — linear-scan imputation and the same pair-level pruning
  cascade, but no trees or grid.
* ``oracle`` — every lookup is a plain scan and every cross-stream pair is
  fully evaluated; this is the reference implementation.

Per step, the whole batch of arrivals is validated first, so a rejected step
leaves the state as it was.  Then evictions across all streams happen, then
arrivals are processed in (stream_id, rid) order; each arrival is probed
against the live tuples of the other streams.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field

from .cdd import detect_cdds
from .errors import ConfigError, DuplicateTuple, NoRulesFound, OutOfOrderArrival
from .grid import ErGrid, TupleSummary, summarize
from .impute import ImputedTuple, impute_tuple
from .index import DrIndex, build_cdd_index, build_dr_index
from .index import dr_query_box_for_rule  # noqa: F401 - perfbench/tracer.py wraps this name
from .metric import DistanceFn
from .model import QueryConfig, Repository, SlidingWindow, StreamTuple
from .pivot import PivotSet, select_pivots
from .prune import (
    STAGE_REFINED,
    STAGES,
    judge_pair,
    pair_probability,
    prob_reports,
)

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
    dr_index: DrIndex | None = None
    cdd_indexes: dict = field(default_factory=dict)  # dependent attr -> CddIndex


def precompute(
    repo: Repository,
    config: QueryConfig,
    dist: DistanceFn,
    mode: str = MODE_ENGINE,
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
    for rule in rules:
        for x in (rule.dependent, *(c.attr for c in rule.determinants)):
            if not 0 <= x < repo.d:
                raise ConfigError(f"rule names attribute {x}, outside [0, {repo.d})")
        rules_by_dep.setdefault(rule.dependent, []).append(rule)
    if pivots is None:
        pivots = select_pivots(repo, dist=dist)
    elif pivots.d != repo.d or not all(pivots.per_attr):
        raise ConfigError(
            f"pivot counts per attribute {[len(p) for p in pivots.per_attr]} do not give"
            f" each of the repository's {repo.d} attributes a pivot"
        )
    else:
        for x, plist in enumerate(pivots.per_attr):
            for a, piv in enumerate(plist):
                if not piv:
                    raise ConfigError(f"pivot {a} of attribute {x} is an empty token set")
    pre = Precomputed(repo=repo, rules=rules, rules_by_dep=rules_by_dep, pivots=pivots)
    if mode == MODE_ENGINE:
        pre.dr_index = build_dr_index(repo, pivots, config.keywords, dist)
        pre.cdd_indexes = {
            j: build_cdd_index(js_rules, pivots, dist) for j, js_rules in rules_by_dep.items()
        }
    return pre


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
        self.pre = precompute(repo, config, self.dist, mode=mode, rules=rules, pivots=pivots)
        self.window = SlidingWindow(config.window_size)
        self.grids: dict = {}  # stream_id -> ErGrid (engine mode only)
        self.summaries: dict = {}  # rid -> TupleSummary (all live tuples)
        self.live_counts: dict = {}  # stream_id -> number of live tuples
        self.results = MatchResultSet()
        self.stage_counts = {stage: 0 for stage in STAGES}
        self.stage_counts[STAGE_REFINED] = 0
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
        events = []
        # phase 1: evictions on every stream that is full and about to receive
        for victim in victims:
            self._remove(victim)
            events.append(Event(ts=ts, kind=KIND_EXPIRE, rid_a=victim.rid))
        # phase 2: insert and probe in arrival order
        for r in arrivals:
            self.window.advance(r)  # any evicted tuple was handled in phase 1
            t0 = time.perf_counter()
            selection = self._select_rules(r)
            t1 = time.perf_counter()
            summary = summarize(
                self._impute(r, selection), self.pre.pivots, self.config.keywords, self.dist
            )
            t2 = time.perf_counter()
            events.extend(self._probe(ts, summary))
            t3 = time.perf_counter()
            self.timings["rule_selection"] += t1 - t0
            self.timings["imputation"] += t2 - t1
            self.timings["er"] += t3 - t2
            self._register(summary)
            self.arrivals += 1
        self.step_times.append(time.perf_counter() - step_t0)
        self.results.extend(events)
        return events

    def _validate(self, ts: int, arrivals: list) -> list:
        """Check a sorted batch against the current state; return the tuples it evicts."""
        for r in arrivals:
            if r.arrival_time != ts:
                raise ConfigError(f"tuple {r.rid} stamped {r.arrival_time}, step is {ts}")
            if r.d != self.config.d:
                raise ConfigError(f"tuple {r.rid} has {r.d} attributes, expected {self.config.d}")
        if len({r.stream_id for r in arrivals}) != len(arrivals):
            raise OutOfOrderArrival("at most one arrival per stream per step")
        for r in arrivals:
            self.window.check_order(r)
        victims = [self.window.pending_eviction(r.stream_id) for r in arrivals]
        victims = [v for v in victims if v is not None]
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

    def _register(self, summary: TupleSummary) -> None:
        self.summaries[summary.rid] = summary
        self.live_counts[summary.stream_id] = self.live_counts.get(summary.stream_id, 0) + 1
        if self.mode == MODE_ENGINE:
            grid = self.grids.get(summary.stream_id)
            if grid is None:
                grid = self.grids[summary.stream_id] = ErGrid(self.config.d, self.dist)
            grid.insert(summary)

    def _remove(self, victim: StreamTuple) -> None:
        del self.summaries[victim.rid]
        self.live_counts[victim.stream_id] -= 1
        if self.mode == MODE_ENGINE:
            self.grids[victim.stream_id].evict(victim.rid)

    # -- imputation ---------------------------------------------------------

    def _select_rules(self, r: StreamTuple):
        """Engine mode: the candidate rules per missing attribute, from the rule
        trees, and the repository samples per rule, from one DR-index retrieval
        for the tuple that computes each distinct determinant's admitted samples
        once (``DrIndex.samples_per_rule``).  None when the tuple is complete
        or another mode scans instead."""
        if self.mode != MODE_ENGINE or r.is_complete():
            return None
        rules_by_dep: dict = {}
        for j in r.missing_attrs():
            idx = self.pre.cdd_indexes.get(j)
            rules_by_dep[j] = [] if idx is None else idx.candidate_rules(r, self.pre.pivots, self.dist)
        samples_per_rule = self.pre.dr_index.samples_per_rule(
            [rule for rules in rules_by_dep.values() for rule in rules], r, self.pre.pivots, self.dist
        )
        return rules_by_dep, samples_per_rule

    def _impute(self, r: StreamTuple, selection) -> ImputedTuple:
        if r.is_complete():
            return ImputedTuple(base=r)
        if selection is None:
            return impute_tuple(r, self.pre.rules_by_dep, self.pre.repo, self.dist)
        rules_by_dep, samples_per_rule = selection
        return impute_tuple(
            r,
            rules_by_dep,
            self.pre.repo,
            self.dist,
            samples_per_rule=samples_per_rule,
            dr_index=self.pre.dr_index,
        )

    # -- matching -----------------------------------------------------------

    def _probe(self, ts: int, summary: TupleSummary) -> list:
        self.pairs_considered += len(self.summaries) - self.live_counts.get(summary.stream_id, 0)
        if self.mode == MODE_ENGINE:
            candidates = self._grid_candidates(summary)
        else:
            candidates = [s for s in self.summaries.values() if s.stream_id != summary.stream_id]
        matched = []
        if self.mode == MODE_ORACLE:
            for other in candidates:
                prob = pair_probability(
                    summary.imputed, other.imputed, self.config.gamma, self.config.keywords, self.dist
                )
                self.stage_counts[STAGE_REFINED] += 1
                if prob_reports(prob, self.config.alpha):
                    matched.append((other, prob))
            return self._emit(ts, summary, matched)

        for other in candidates:
            verdict = judge_pair(
                summary,
                other,
                self.config.gamma,
                self.config.alpha,
                self.config.keywords,
                self.dist,
            )
            self.stage_counts[verdict.stage] += 1
            if verdict.matched:
                matched.append((other, verdict.prob))
        return self._emit(ts, summary, matched)

    def _grid_candidates(self, summary: TupleSummary) -> list:
        """Survivors of every other stream's grid; the grids' skip counts go to stage_counts."""
        candidates = []
        for sid, grid in self.grids.items():
            if sid == summary.stream_id:
                continue
            cands, skipped = grid.candidates(summary, self.config.gamma, self.config.keywords)
            candidates.extend(cands)
            for stage, n in skipped.items():
                self.stage_counts[stage] += n
        return candidates

    def _emit(self, ts: int, summary: TupleSummary, matched) -> list:
        events = []
        for other, prob in sorted(matched, key=lambda mp: (mp[0].stream_id, mp[0].rid)):
            first, second = sorted(
                (summary, other), key=lambda s: (s.stream_id, s.rid)
            )
            events.append(
                Event(ts=ts, kind=KIND_MATCH, rid_a=first.rid, rid_b=second.rid, prob=prob)
            )
            self.matches_reported += 1
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
