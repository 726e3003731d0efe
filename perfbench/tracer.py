"""Outside-in tracing: wrap each layer's public entry points from the benchmark's side.

Spans are kept in memory as flat arrays (name, parent span, step, start, end)
and turned into per-layer self times when the run ends: a span's self time is
its duration minus the durations of its direct child spans.  Self times of
every span opened inside ``Engine.step`` therefore add up to the summed step
time, with no layer counted twice.

Counts come from what the wrapped calls return, so they measure the work the
layers actually did.  An entry point that no longer exists is reported as
missing, and every metric that depends on it reads null; so does every count
taken from a return value that no longer has the shape a count hook reads.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

STEP_SPAN = "Engine.step"


def _count_rules(counts, args, rules):
    counts["cdd.rules"] += len(rules)


def _count_pivots(counts, args, pivots):
    counts["pivot.aux_pivots"] += sum(pivots.n_pivots(x) - 1 for x in range(pivots.d))


def _count_lattice(counts, args, index):
    counts["index.lattice_entries"] += sum(len(level) for level in index.lattice)


def _count_rule_query(counts, args, rules):
    counts["index.rule_queries"] += 1
    counts["index.rules_selected"] += len(rules)


def _count_dr_query(counts, args, samples):
    counts["index.dr_queries"] += 1
    counts["index.dr_samples"] += len(samples)


def _count_imputation(counts, args, imputed):
    counts["impute.tuples"] += 1
    counts["impute.fallback_attrs"] += len(imputed.fallback_attrs)
    counts["impute.instances"] += imputed.instance_count()


def _count_eviction(counts, args, summary):
    counts["grid.evictions"] += 1


def _count_candidates(counts, args, result):
    counts["grid.probes"] += 1
    counts["grid.candidates"] += len(result[0])
    counts["grid.live_probed"] += len(args[0])  # live tuples of the probed stream


# (module[:class], attribute, span name, count hook).  The module globals are
# the names teride.engine and teride.prune resolve at call time.
ENTRY_POINTS = (
    ("teride.engine", "detect_cdds", "detect_cdds", _count_rules),
    ("teride.engine", "select_pivots", "select_pivots", _count_pivots),
    ("teride.engine", "build_dr_index", "build_dr_index", None),
    ("teride.engine", "build_cdd_index", "build_cdd_index", _count_lattice),
    ("teride.engine", "dr_query_box_for_rule", "dr_query_box_for_rule", None),
    ("teride.engine", "impute_tuple", "impute_tuple", _count_imputation),
    ("teride.engine", "summarize", "summarize", None),
    ("teride.engine", "judge_pair", "judge_pair", None),
    ("teride.engine", "pair_probability", "pair_probability", None),
    ("teride.prune", "instance_level_scan", "instance_level_scan", None),
    ("teride.prune", "pair_probability", "pair_probability", None),
    ("teride.index:CddIndex", "candidate_rules", "CddIndex.candidate_rules", _count_rule_query),
    ("teride.index:DrIndex", "range_samples", "DrIndex.range_samples", _count_dr_query),
    ("teride.grid:ErGrid", "insert", "ErGrid.insert", None),
    ("teride.grid:ErGrid", "evict", "ErGrid.evict", _count_eviction),
    ("teride.grid:ErGrid", "candidates", "ErGrid.candidates", _count_candidates),
    ("teride.engine:Engine", "step", STEP_SPAN, None),
)

# Layer self-time metric -> the spans it sums.  Every span belongs to one metric.
LAYER_TIMES = {
    "cdd.detect_s": ("detect_cdds",),
    "pivot.select_s": ("select_pivots",),
    "index.build_s": ("build_dr_index", "build_cdd_index"),
    "index.rule_select_s": ("CddIndex.candidate_rules",),
    "index.dr_range_s": ("dr_query_box_for_rule", "DrIndex.range_samples"),
    "impute.self_s": ("impute_tuple",),
    "grid.summarize_s": ("summarize",),
    "grid.insert_s": ("ErGrid.insert",),
    "grid.evict_s": ("ErGrid.evict",),
    "grid.candidates_s": ("ErGrid.candidates",),
    "prune.judge_s": ("judge_pair",),
    "prune.instance_scan_s": ("instance_level_scan",),
    "prune.refine_s": ("pair_probability",),
    "engine.self_s": (STEP_SPAN,),
}

# Count metric -> the spans whose hooks feed it.
LAYER_COUNTS = {
    "cdd.rules": ("detect_cdds",),
    "pivot.aux_pivots": ("select_pivots",),
    "index.lattice_entries": ("build_cdd_index",),
    "index.rule_queries": ("CddIndex.candidate_rules",),
    "index.dr_queries": ("DrIndex.range_samples",),
    "impute.tuples": ("impute_tuple",),
    "impute.fallback_attrs": ("impute_tuple",),
    "grid.evictions": ("ErGrid.evict",),
    "grid.probes": ("ErGrid.candidates",),
}

# Ratio metric -> (numerator count, denominator count, spans both depend on).
LAYER_RATIOS = {
    "index.rules_per_tuple": (
        "index.rules_selected", "impute.tuples", ("CddIndex.candidate_rules", "impute_tuple")
    ),
    "index.dr_samples_per_rule": ("index.dr_samples", "index.dr_queries", ("DrIndex.range_samples",)),
    "impute.instances_per_tuple": ("impute.instances", "impute.tuples", ("impute_tuple",)),
    "grid.candidates_per_probe": ("grid.candidates", "grid.probes", ("ErGrid.candidates",)),
    "grid.candidate_ratio": ("grid.candidates", "grid.live_probed", ("ErGrid.candidates",)),
}


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans around the entry points while installed (a context manager)."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.span_names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.step = array("i")  # step index per span, -1 for set-up spans
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.missing: list = []  # "target.attribute" of entry points not found
        self.unreadable: set = set()  # spans whose return values a count hook could not read
        self.steps = 0  # Engine.step calls seen
        self._step = -1  # index of the step in progress, -1 outside steps
        self._open: list = []
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for target, attr, span, hook in self.entry_points:
            owner = _resolve(target)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.append(f"{target}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, span, hook))
            self._undo.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _wrap(self, fn, span: str, hook):
        name_id = self._name_ids.setdefault(span, len(self._name_ids))
        if name_id == len(self.span_names):
            self.span_names.append(span)
        starts_step = span == STEP_SPAN
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            root_step = starts_step and tracer._step < 0
            if root_step:
                tracer._step = tracer.steps
                tracer.steps += 1
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._open[-1] if tracer._open else -1)
            tracer.step.append(tracer._step)
            tracer.end.append(0.0)
            tracer._open.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._open.pop()
                if root_step:
                    tracer._step = -1
            if hook is not None and span not in tracer.unreadable:
                try:
                    hook(tracer.counts, args, result)
                except (AttributeError, TypeError, IndexError):
                    tracer.unreadable.add(span)
            return result

        return traced

    # -- reporting ----------------------------------------------------------

    def self_times(self) -> tuple:
        """(self seconds per span name, summed duration of the outermost Engine.step spans)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        per_name = [0.0] * len(self.span_names)
        step_total = 0.0
        step_id = self._name_ids.get(STEP_SPAN)
        for i in range(n):
            dur = self.end[i] - self.start[i]
            per_name[self.name[i]] += dur - child[i]
            if self.parent[i] < 0 and self.name[i] == step_id:
                step_total += dur
        return dict(zip(self.span_names, per_name)), step_total

    def report(self, repo_size: int) -> dict:
        """Per-layer metrics; a metric whose entry points are missing reads None."""
        missing_spans = {
            span for target, attr, span, _ in self.entry_points if f"{target}.{attr}" in self.missing
        }

        def have(spans, counted: bool = False) -> bool:
            lost = missing_spans | self.unreadable if counted else missing_spans
            return not lost.intersection(spans)

        by_span, step_total = self.self_times()
        out: dict = {}
        for metric, spans in LAYER_TIMES.items():
            out[metric] = sum(by_span.get(s, 0.0) for s in spans) if have(spans) else None
        for metric, spans in LAYER_COUNTS.items():
            out[metric] = self.counts[metric] if have(spans, counted=True) else None
        for metric, (num, den, spans) in LAYER_RATIOS.items():
            counted = have(spans, counted=True)
            out[metric] = _ratio(self.counts[num], self.counts[den]) if counted else None
        per_rule = out["index.dr_samples_per_rule"]
        out["index.dr_selectivity"] = None if per_rule is None else per_rule / repo_size
        out["trace.step_total_s"] = step_total if have((STEP_SPAN,)) else None
        return out

