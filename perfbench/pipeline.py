"""One `ptr simulate` -> `ptr analyze` pipeline through `ptmarkov.cli.main`,
and the correctness gate that checks its outputs by an independent route.

Only the two CLI calls are timed. The gate runs afterwards: it reloads the
written tensor, checks its trace and positivity, contracts it against
seeded random control sequences and compares with `simulate_sequence` on
the same dilation built directly from the model constructors, and checks
the report against the verdict the model is known to have.
"""

from __future__ import annotations

import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from ptmarkov import cli, models
from ptmarkov.defaults import PSD_CLIP
from ptmarkov.process_tensor import ProcessTensor
from ptmarkov.random_ops import random_control_sequence

from workloads import PipelineSpec, reference_model

APPLY_SEQUENCES = 4
APPLY_TOL = 1e-9
TRACE_TOL = 1e-9
MEASURE_TOL = 1e-9


@dataclass
class Record:
    """Outcome of one pipeline."""

    label: str
    round: int = 0
    # perf_counter() at the start and end of each command
    simulate: tuple[float, float] = (0.0, 0.0)
    analyze: tuple[float, float] = (0.0, 0.0)
    problems: list[str] = field(default_factory=list)

    @property
    def simulate_s(self) -> float:
        return self.simulate[1] - self.simulate[0]

    @property
    def analyze_s(self) -> float:
        return self.analyze[1] - self.analyze[0]

    @property
    def pipeline_s(self) -> float:
        return self.simulate_s + self.analyze_s

    @property
    def ok(self) -> bool:
        return not self.problems


def _cli(argv: list[str]) -> tuple[int | None, str]:
    """Run one CLI command; returns its exit code (None when it raised)
    and what it printed."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(out):
            code = cli.main(argv)
    except Exception as exc:  # a raw traceback counts as a failed pipeline
        return None, f"{out.getvalue()}{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def run_pipeline(spec: PipelineSpec, cfg: dict, workdir: str, tag: str,
                 check_seed: int, tracer=None, pipeline_id: int = 0,
                 corrupt=None, round_index: int = 0) -> Record:
    """Simulate then analyze one config; ``corrupt`` (a callable on the
    PTF1 path) may damage the file between the two commands. With a
    ``tracer``, the two commands record spans under ``pipeline_id``."""
    rec = Record(spec.label, round_index)
    cfg_path = os.path.join(workdir, f"{tag}.json")
    ptf_path = os.path.join(workdir, f"{tag}.ptf")
    rep_path = os.path.join(workdir, f"{tag}.report.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)

    def timed(span_name, argv):
        if tracer is None:
            t0 = time.perf_counter()
            code, text = _cli(argv)
            return (t0, time.perf_counter()), code, text
        tracer.pipeline = pipeline_id
        try:
            t0 = time.perf_counter()
            with tracer.span(span_name):
                code, text = _cli(argv)
            return (t0, time.perf_counter()), code, text
        finally:
            tracer.pipeline = None

    rec.simulate, code, text = timed(
        "cli.simulate", ["simulate", cfg_path, "-o", ptf_path])
    if code != 0:
        rec.problems.append(f"simulate exit {code}: {text.strip()[-200:]}")
        return rec
    if corrupt is not None:
        corrupt(ptf_path)
    rec.analyze, code, text = timed(
        "cli.analyze",
        ["analyze", ptf_path, "-o", rep_path, *spec.analyze_flags])
    if code != 0:
        rec.problems.append(f"analyze exit {code}: {text.strip()[-200:]}")
        return rec
    try:
        rec.problems.extend(
            check_outputs(cfg, ptf_path, rep_path, check_seed,
                          expect_markov="--markov" in spec.analyze_flags
                          or not spec.analyze_flags))
    except Exception as exc:  # a check that cannot run is a failed check
        rec.problems.append(f"check raised {type(exc).__name__}: {exc}")
    return rec


def check_outputs(cfg: dict, ptf_path: str, rep_path: str, seed: int,
                  expect_markov: bool = True) -> list[str]:
    """Problems found in one pipeline's outputs; empty when all pass.
    ``seed`` draws the random control sequences; ``expect_markov`` says
    whether the report must hold the causal-break test."""
    problems = []
    model = reference_model(cfg)
    times = cfg["times"]
    k = len(times) - 1
    d = model.system_dim
    pt = ProcessTensor.load(ptf_path)
    if not np.isfinite(pt.choi).all():
        return ["tensor has non-finite entries"]
    # Each check below is written in its passing direction, so that a NaN
    # fails it.
    if not abs(pt.trace - d ** k) <= TRACE_TOL * d ** k:
        problems.append(f"trace {pt.trace!r} != {d ** k}")
    if not pt.min_eigenvalue >= -PSD_CLIP:
        problems.append(f"min eigenvalue {pt.min_eigenvalue:.3e}")
    rng = np.random.default_rng(seed)
    for _ in range(APPLY_SEQUENCES):
        controls = random_control_sequence(d, k, rng)
        want, _ = models.simulate_sequence(model, times, controls)
        err = float(np.abs(pt.apply(controls).matrix - want.matrix).max())
        if not err <= APPLY_TOL:
            problems.append(f"apply differs from simulate_sequence by {err:.3e}")
            break

    with open(rep_path, encoding="utf-8") as fh:
        analyses = json.load(fh)["analyses"]
    mk = analyses["markov"] if expect_markov else None
    n_value = analyses["measure"]["n_value"]
    bond_dims = analyses["bonddim"]["bond_dims"]
    if cfg["model"] == "markov":
        if mk is not None and not mk["is_markov"]:
            problems.append("memoryless process reported non-Markovian")
        if not n_value <= MEASURE_TOL:
            problems.append(f"memoryless process has n_value {n_value:.3e}")
        if any(b != 1 for b in bond_dims):
            problems.append(f"memoryless process has bond dims {bond_dims}")
        if not analyses["classical"]["is_markov"]:
            problems.append("memoryless process fails the classical check")
    else:
        if mk is not None and mk["is_markov"]:
            problems.append(f"{cfg['model']} process reported Markovian")
        if not n_value > 0:
            problems.append(f"{cfg['model']} process has n_value {n_value}")
    return problems
