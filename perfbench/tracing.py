"""Spans around calls into ptmarkov's layers, recorded from outside the
package.

`Tracer.installed()` swaps wrappers in for the public names that `cli`,
`models` and `markov` call and restores the originals on exit; nothing
under `src/` changes. Each span records its name, start, end, parent span
and pipeline id, plus a few counts read from the call's result. Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, field

from ptmarkov import cli, markov, models, process_tensor, ptf, qops

# (module or class, attribute, span name). Two entries share a span name when
# the same function is reachable under both names; a name that no longer
# exists is skipped, so its layer reports zero calls.
TARGETS = (
    (models, "build_process_tensor", "models.build_process_tensor"),
    (models, "from_tomography", "process_tensor.from_tomography"),
    (cli, "ic_basis", "qops.ic_basis"),
    (qops, "ic_basis", "qops.ic_basis"),
    (cli, "markov_test", "markov.markov_test"),
    (cli, "divisibility_test", "markov.divisibility_test"),
    (cli, "non_markovianity", "markov.non_markovianity"),
    (cli, "bond_dimension", "markov.bond_dimension"),
    (markov, "bond_dimension", "markov.bond_dimension"),
    (cli, "classical_process", "markov.classical_process"),
    (cli, "classical_markov_check", "markov.classical_markov_check"),
    (ptf, "save", "ptf.save"),
    (ptf, "load", "ptf.load"),
    (process_tensor.ProcessTensor, "restrict", "process_tensor.restrict"),
    (process_tensor.ProcessTensor, "marginal_map",
     "process_tensor.marginal_map"),
    (process_tensor.ProcessTensor, "contraction_form",
     "process_tensor.contraction_form"),
    (process_tensor.ProcessTensor, "min_eigenvalue",
     "process_tensor.min_eigenvalue"),
)

# Per-layer metrics of a traced run, each averaged over the traced
# pipelines: (metric name, unit, span name, statistic).
LAYER_METRICS = (
    ("models.build_process_tensor.busy_s", "s",
     "models.build_process_tensor", "busy"),
    ("models.sweep.self_s", "s", "models.build_process_tensor", "self"),
    ("process_tensor.from_tomography.busy_s", "s",
     "process_tensor.from_tomography", "busy"),
    ("process_tensor.from_tomography.calls", "count",
     "process_tensor.from_tomography", "calls"),
    ("process_tensor.min_eigenvalue.busy_s", "s",
     "process_tensor.min_eigenvalue", "busy"),
    ("process_tensor.restrict.busy_s", "s", "process_tensor.restrict", "busy"),
    ("process_tensor.restrict.calls", "count", "process_tensor.restrict",
     "calls"),
    ("process_tensor.marginal_map.busy_s", "s", "process_tensor.marginal_map",
     "busy"),
    ("process_tensor.contraction_form.busy_s", "s",
     "process_tensor.contraction_form", "busy"),
    ("markov.markov_test.busy_s", "s", "markov.markov_test", "busy"),
    ("markov.markov_test.self_s", "s", "markov.markov_test", "self"),
    ("markov.markov_test.breaks_tested", "count", "markov.markov_test",
     "breaks_tested"),
    ("markov.markov_test.skipped_conditionals", "count", "markov.markov_test",
     "skipped_conditionals"),
    ("markov.divisibility_test.busy_s", "s", "markov.divisibility_test",
     "busy"),
    ("markov.non_markovianity.busy_s", "s", "markov.non_markovianity", "busy"),
    ("markov.non_markovianity.self_s", "s", "markov.non_markovianity", "self"),
    ("markov.bond_dimension.busy_s", "s", "markov.bond_dimension", "busy"),
    ("markov.bond_dimension.calls", "count", "markov.bond_dimension", "calls"),
    ("markov.classical.busy_s", "s", "markov.classical", "busy"),
    ("ptf.save.busy_s", "s", "ptf.save", "busy"),
    ("ptf.load.busy_s", "s", "ptf.load", "busy"),
    ("ptf.bytes", "B", "ptf.save", "bytes"),
    ("qops.ic_basis.busy_s", "s", "qops.ic_basis", "busy"),
    ("qops.ic_basis.calls", "count", "qops.ic_basis", "calls"),
    ("cli.simulate.self_s", "s", "cli.simulate", "self"),
    ("cli.analyze.self_s", "s", "cli.analyze", "self"),
)

# Spans merged into one layer for reporting.
MERGED = {"markov.classical": ("markov.classical_process",
                               "markov.classical_markov_check")}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pipeline: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, args, result) -> dict:
    """Work counts read from a call's arguments and result."""
    if name == "markov.markov_test":
        return {"breaks_tested": len(result.breaks_tested),
                "skipped_conditionals": result.skipped_conditionals}
    if name == "ptf.save":
        return {"bytes": os.path.getsize(args[1])}
    return {}


class Tracer:
    """In-memory span recorder. Spans are recorded only while `pipeline`
    is set, so calls made by the correctness checks stay out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pipeline: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, args=()):
        """Record one span; yields a dict the caller may fill with the
        result under the key "result"."""
        if self.pipeline is None:
            yield {}
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        rec = Span(name, 0.0, 0.0, parent, self.pipeline)
        self.spans.append(rec)
        self._stack.append(index)
        out: dict = {}
        rec.start = time.perf_counter()
        try:
            yield out
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
        if "result" in out:
            rec.counts = _counts(name, args, out["result"])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, args) as out:
                out["result"] = fn(*args, **kwargs)
            return out["result"]
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        wrapped: dict[int, object] = {}
        try:
            for owner, attr, name in TARGETS:
                if attr not in vars(owner):
                    continue
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                if isinstance(orig, property):
                    new = property(self._wrap(name, orig.fget))
                else:
                    new = wrapped.setdefault(id(orig), self._wrap(name, orig))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Children run sequentially in one thread, so their intervals are
    disjoint."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_stats(spans: list[Span], pipelines: set[int]) -> dict:
    """Per span name over the given pipelines: busy and self time, call
    count and summed counts."""
    own = self_times(spans)
    stats: dict[str, dict] = {}
    for s, self_s in zip(spans, own):
        if s.pipeline not in pipelines:
            continue
        names = [s.name] + [m for m, parts in MERGED.items()
                            if s.name in parts]
        for name in names:
            st = stats.setdefault(name, {"busy": 0.0, "self": 0.0, "calls": 0})
            st["busy"] += s.duration
            st["self"] += self_s
            st["calls"] += 1
            for key, value in s.counts.items():
                st[key] = st.get(key, 0) + value
    return stats


def layer_metrics(spans: list[Span], pipelines: set[int]) -> dict:
    """The LAYER_METRICS values, averaged per traced pipeline. A layer with
    no spans reports 0."""
    stats = layer_stats(spans, pipelines)
    n = max(len(pipelines), 1)
    return {metric: {"value": stats.get(span, {}).get(stat, 0) / n,
                     "unit": unit}
            for metric, unit, span, stat in LAYER_METRICS}


# Columns of the ROADMAP baseline table (memoryless dilation, layer x K).
BASELINE_COLUMNS = (
    ("build", "models.build_process_tensor"),
    ("markov_test", "markov.markov_test"),
    ("non_markovianity", "markov.non_markovianity"),
    ("bond_dimension", "markov.bond_dimension"),
    ("divisibility", "markov.divisibility_test"),
)


def baseline_rows(spans: list[Span], pipeline_k: dict[int, int]) -> dict:
    """Mean seconds per call of each baseline column, keyed by K, over the
    given memoryless pipelines. A layer that was not run is None."""
    rows = {}
    for k in sorted(set(pipeline_k.values())):
        ids = {p for p, kk in pipeline_k.items() if kk == k}
        stats = layer_stats(spans, ids)
        rows[k] = {col: (stats[span]["busy"] / stats[span]["calls"]
                         if span in stats else None)
                   for col, span in BASELINE_COLUMNS}
    return rows


def format_baseline(rows: dict) -> str:
    def cell(v):
        return "-" if v is None else f"{v:.4g} s"
    head = "| K | " + " | ".join(c for c, _ in BASELINE_COLUMNS) + " |"
    lines = [head, "|---" * (len(BASELINE_COLUMNS) + 1) + "|"]
    for k, row in sorted(rows.items()):
        lines.append(f"| {k} | " + " | ".join(
            cell(row[c]) for c, _ in BASELINE_COLUMNS) + " |")
    return "\n".join(lines)

