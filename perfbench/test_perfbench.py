"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
from pipeline import check_outputs, run_pipeline  # noqa: E402
from workloads import WORKLOADS, PipelineSpec, make_inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(trace, key):
    proc = _run("--workload", "mixed-small", "--seed", "3", "--seconds", "0",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS["mixed-small"]) * (
        1 + int(trace))
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert "failed_frac 0" in proc.stderr


def test_benchmark_lists_runnable_workloads():
    for w in BENCH["workloads"]:
        assert w["name"] in WORKLOADS


def test_inputs_depend_only_on_seed():
    assert make_inputs("mixed-small", 5) == make_inputs("mixed-small", 5)
    assert make_inputs("mixed-small", 5) != make_inputs("mixed-small", 6)


def _truncate(path):
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 8)


def _nan_blob(path):
    with open(path, "r+b") as fh:
        fh.seek(-8, os.SEEK_END)
        fh.write(np.array([np.nan], dtype="<f8").tobytes())


@pytest.mark.parametrize("corrupt", [_truncate, _nan_blob])
def test_corrupted_ptf1_counts_as_failed_pipeline(tmp_path, corrupt):
    spec = PipelineSpec("b2", 2)
    cfg = make_inputs("mixed-small", 0)[1]
    bad = run_pipeline(spec, cfg, str(tmp_path), "bad", check_seed=0,
                       corrupt=corrupt)
    assert not bad.ok
    good = run_pipeline(spec, cfg, str(tmp_path), "good", check_seed=0)
    assert good.ok, good.problems


def _memoryless_outputs(tmp_path):
    """A passing memoryless K = 2 pipeline's config, PTF1 and report paths."""
    cfg = make_inputs("mixed-small", 0)[3]
    rec = run_pipeline(PipelineSpec("markov", 2), cfg, str(tmp_path), "mk",
                       check_seed=0)
    assert rec.ok, rec.problems
    return cfg, str(tmp_path / "mk.ptf"), str(tmp_path / "mk.report.json")


def test_gate_rejects_nan_tensor(tmp_path):
    cfg, ptf_path, rep_path = _memoryless_outputs(tmp_path)
    _nan_blob(ptf_path)
    assert check_outputs(cfg, ptf_path, rep_path, seed=0)


def test_gate_rejects_nan_measure(tmp_path):
    cfg, ptf_path, rep_path = _memoryless_outputs(tmp_path)
    with open(rep_path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["analyses"]["measure"]["n_value"] = float("nan")
    with open(rep_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    problems = check_outputs(cfg, ptf_path, rep_path, seed=0)
    assert any("n_value" in p for p in problems), problems


def test_swapped_tensor_counts_as_failed_pipeline(tmp_path):
    # A memoryless pipeline whose PTF1 file is replaced by a b2 tensor.
    cfgs = make_inputs("mixed-small", 0)
    b2_cfg, mk_cfg = cfgs[1], cfgs[3]

    def swap_in_b2(path):
        run_pipeline(PipelineSpec("b2", 2), b2_cfg, str(tmp_path), "other",
                     check_seed=0)
        shutil.copy(tmp_path / "other.ptf", path)

    rec = run_pipeline(PipelineSpec("markov", 2), mk_cfg, str(tmp_path),
                       "mk", check_seed=0, corrupt=swap_in_b2)
    assert not rec.ok


def test_tracer_spans_self_time_and_restore(tmp_path):
    from ptmarkov import cli, models

    orig = models.build_process_tensor
    tracer = tracing.Tracer()
    spec = PipelineSpec("markov", 2)
    cfg = make_inputs("mixed-small", 0)[3]
    with tracer.installed():
        assert models.build_process_tensor is not orig
        rec = run_pipeline(spec, cfg, str(tmp_path), "t", check_seed=0,
                           tracer=tracer, pipeline_id=7)
    assert models.build_process_tensor is orig
    assert cli.ic_basis.__module__ == "ptmarkov.qops"
    assert rec.ok, rec.problems
    names = [s.name for s in tracer.spans]
    assert names.count("cli.simulate") == names.count("cli.analyze") == 1
    assert names.count("markov.bond_dimension") == 2
    assert {s.pipeline for s in tracer.spans} == {7}
    own = tracing.self_times(tracer.spans)
    assert all(v >= -1e-6 for v in own)
    top = sum(s.duration for s in tracer.spans if s.parent is None)
    assert abs(sum(own) - top) < 1e-6
    metrics = tracing.layer_metrics(tracer.spans, {7})
    assert metrics["markov.markov_test.breaks_tested"]["value"] == 1
    assert metrics["markov.bond_dimension.calls"]["value"] == 2


def test_missing_layer_reports_zero_calls():
    metrics = tracing.layer_metrics([], {0})
    assert all(m["value"] == 0 for m in metrics.values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "mixed-small", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
