import hashlib
import json
import math
import os
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptmarkov
from ptmarkov import (
    FormatError,
    ProcessTensor,
    QuantumMap,
    SEModel,
    build_process_tensor,
    linalg,
    markov,
    model_b2,
    process_tensor,
    ptf,
    qops,
    tensor_product,
)
from ptmarkov.cli import main
from ptmarkov.defaults import PSD_CLIP
from ptmarkov.process_tensor import leg_labels
from ptmarkov.random_ops import random_density, random_unitary

from oracles import P0, PP, closest_markov, partial_swap_unitary


def _write_config(path, **overrides):
    cfg = {
        "model": "b2",
        "params": {"omega": 1.0},
        "times": [0.0, math.pi / 4, math.pi / 2],
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_writes_ptf(tmp_path, capsys):
    cfg = _write_config(tmp_path / "b2.json")
    out = tmp_path / "b2.ptf"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "32 x 32" in text
    pt = ProcessTensor.load(out)
    assert pt.n_steps == 2
    assert abs(pt.trace - 4.0) <= 1e-9


def test_simulate_b3_identity_output(tmp_path, capsys):
    cfg = tmp_path / "b3.json"
    cfg.write_text(json.dumps({
        "model": "b3",
        "params": {"rho_s": "plus", "rho_e": "zero"},
        "times": [0.0, 1.0, 2.0],
    }))
    out = tmp_path / "b3.ptf"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0
    pt = ProcessTensor.load(out)
    ident = QuantumMap.identity(2)
    got = pt.apply([ident, ident])
    assert np.abs(got.matrix - PP).max() <= 1e-9


def test_simulate_markov_product_form(tmp_path):
    cfg = tmp_path / "mk.json"
    cfg.write_text(json.dumps({
        "model": "markov",
        "params": {"kraus_rank": 2},
        "seed": 7,
        "times": [0.0, 1.0, 2.0],
    }))
    out = tmp_path / "mk.ptf"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0
    pt = ProcessTensor.load(out)
    # product-form check: every temporal cut is rank one
    from ptmarkov import bond_dimension
    assert bond_dimension(pt) == [1, 1]
    # and the tensor factorizes into its block marginals
    from ptmarkov import trace_norm_distance
    assert trace_norm_distance(closest_markov(pt).choi, pt.choi) <= 1e-9


def test_simulate_solves_no_spectrum(tmp_path, monkeypatch):
    """The tensor is M M^dagger, PSD by construction: `ptr simulate` writes
    it without eigensolving anything of its size (only the small initial
    and step states are decomposed)."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def counted(a, *args, _orig=orig, **kwargs):
            calls.append(np.shape(a))
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    cfg = _write_config(tmp_path / "b2.json")
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "b2.ptf")]) == 0
    assert all(shape[-1] < 32 for shape in calls), calls


def test_simulate_ignores_basis_key(tmp_path):
    """"basis" selects nothing, so like any unknown key it is ignored."""
    cfg = _write_config(tmp_path / "b2.json", basis="pauli")
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "b2.ptf")]) == 0


def test_simulate_missing_output_is_config_error(tmp_path):
    cfg = _write_config(tmp_path / "b2.json")
    assert main(["simulate", str(cfg)]) == 2


def test_simulate_bad_model_exit_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "nope", "times": [0, 1]}))
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.ptf")]) == 2


def test_simulate_guard_exit_2(tmp_path):
    cfg = _write_config(tmp_path / "big.json",
                        times=[float(i) for i in range(7)])
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.ptf")]) == 2


@pytest.mark.parametrize("rank, times", [(16, [0, 1, 2, 3]),
                                         (10 ** 6, [0, 1])])
def test_simulate_markov_dilation_guard_exit_2(tmp_path, capsys, monkeypatch,
                                               rank, times):
    """A `markov` config whose joint unitary exceeds the size guard (16
    Kraus operators over three steps: 8192 x 8192, 1 GiB; or a rank of
    10**6) exits 2 before any channel is drawn, and writes nothing."""
    from ptmarkov import cli

    def drawn(*args, **kwargs):
        raise AssertionError("channels drawn past the size guard")
    monkeypatch.setattr(cli, "random_control_sequence", drawn)
    cfg = tmp_path / "mk.json"
    cfg.write_text(json.dumps({"model": "markov",
                               "params": {"kraus_rank": rank},
                               "times": times}))
    out = tmp_path / "x.ptf"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "size guard" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("gamma, times, message", [
    (1e-3, [0, 1, 2, 3, 4], "size guard"),
    (1.0, [0, 1, 1 + math.sqrt(2)], "not commensurate"),
    (1e-5, [0, 1], "coarsen the time grid")],
    ids=["columns-guard", "incommensurate", "over-cap"])
def test_simulate_b1_ensemble_refused_exit_2(tmp_path, capsys, monkeypatch,
                                             gamma, times, message):
    """A b1 config whose link-product columns exceed the size guard, or
    whose grid no quadrature fits, exits 2 before the sweep, without a
    traceback, and writes nothing."""
    from ptmarkov import models

    def swept(*args, **kwargs):
        raise AssertionError("link product swept past the size guard")
    monkeypatch.setattr(models, "_link_product", swept)
    cfg = _write_config(tmp_path / "b1.json", model="b1",
                        params={"gamma": gamma, "g": 1.0}, times=times)
    out = tmp_path / "x.ptf"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("model, params, times, message", [
    ("b1", {"gamma": 1e-200, "g": 1e-200}, [0, 1],
     "grid requires inf ensemble nodes"),
    ("b1", {"gamma": 1e-300, "g": 1.0}, [0, 1],
     "grid requires 3.7e+301 ensemble nodes"),
    ("b1", {"gamma": 1.0, "g": 1.0}, [-1e308, 1e308], "time span overflows"),
    ("b2", {"omega": 1.0}, [-1e308, 1e308], "time span overflows"),
], ids=["b1-underflow", "b1-readable-count", "b1-span", "b2-span"])
def test_simulate_overflowing_grid_exit_2(tmp_path, capsys, model, params,
                                          times, message):
    """A decay gamma*|g|*h that underflows, or an interval t1 - t0 that
    overflows, is a config error with a readable message, not a raw
    OverflowError, ValueError or NaN unitary defect."""
    cfg = _write_config(tmp_path / "c.json", model=model, params=params,
                        times=times)
    out = tmp_path / "x.ptf"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert len(err) < 200 and not out.exists()


def test_examples_b1_underflowing_decay_exit_2(capsys):
    assert main(["examples", "b1", "--gamma-g", "1e-320"]) == 2
    assert "grid requires inf ensemble nodes" in capsys.readouterr().err


def test_parser_is_reused_without_state():
    """`main` builds its parser once; a flag of one call does not carry
    into the next."""
    from ptmarkov import cli
    from ptmarkov.defaults import BOND_CUTOFF, MARKOV_TOL
    first = cli._parser().parse_args(["analyze", "f.ptf", "--markov",
                                      "--tol", "0.5", "--csv", "d.csv"])
    again = cli._parser().parse_args(["analyze", "f.ptf"])
    assert first.markov and first.tol == 0.5 and first.csv == "d.csv"
    assert not any(getattr(again, name) for name in cli.ANALYSES)
    assert (again.tol, again.bond_cutoff, again.csv) == \
        (MARKOV_TOL, BOND_CUTOFF, None)
    assert cli._parser() is cli._parser()


def test_simulate_non_finite_times_exit_2(tmp_path, capsys):
    """A time tag that JSON reads as infinity is a config error, and no
    file is written."""
    cfg = tmp_path / "inf.json"
    cfg.write_text('{"model": "markov", "times": [0, 1e400]}')
    out = tmp_path / "inf.ptf"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_huge_integer_time_exit_3(tmp_path, capsys):
    """A header time tag that JSON reads as a 400-digit integer is beyond
    float range: the file is malformed, exit 3, not a traceback."""
    path, header, raw = _saved_identity_ptf(tmp_path)
    header["times"] = [0, 1, 10 ** 400]
    _write_ptf(path, header, raw)
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: times must be a list of finite numbers")


def test_simulate_integer_past_the_digit_limit_exit_2(tmp_path, capsys):
    """A 5000-digit integer is past Python's limit on integer string
    conversion (4300 digits), which ``json.load`` raises as a plain
    ValueError: a config error, exit 2, and no file is written."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.ptf"
    cfg.write_text('{"model": "b2", "params": {"omega": ' + "1" * 5000
                   + '}, "times": [0, 1]}')
    assert main(["simulate", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg} is not valid JSON: Exceeds")
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_non_utf8_config_exit_2(tmp_path, capsys):
    """A config that is not UTF-8 is a config error, not a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"model": "b2", "params": {"omega": 1.0\xff}}')
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.ptf")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config {cfg} is not valid JSON: 'utf-8' codec")


def test_analyze_integer_past_the_digit_limit_exit_3(tmp_path, capsys):
    """A PTF1 header whose ``k`` has 5000 digits is unreadable: exit 3,
    not a traceback."""
    path, header, raw = _saved_identity_ptf(tmp_path)
    line = json.dumps(header).replace('"k": 2', '"k": ' + "1" * 5000)
    path.write_bytes(line.encode("utf-8") + b"\n" + raw.tobytes())
    assert main(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable header: Exceeds")
    assert "Traceback" not in err


@pytest.mark.parametrize("model, key", [("b2", "rho_s"), ("b3", "rho_e"),
                                        ("markov", "rho0")])
def test_simulate_huge_integer_state_entry_exit_2(tmp_path, capsys, model,
                                                  key):
    """A 400-digit integer in a state entry is beyond float range: a
    config error naming the key, and no file is written."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.ptf"
    cfg.write_text(json.dumps({"model": model, "times": [0, 1, 2], "params": {
        key: [[[1, 0], [0, 0]], [[0, 0], [-10 ** 400, 0]]]}}))
    assert main(["simulate", str(cfg), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config key {key!r}: state entries must be finite")
    assert not out.exists()


def test_analyze_oversize_header_exit_2(tmp_path, capsys):
    """A K = 6 qubit header is refused by the size guard, before its blob
    is read."""
    path, header, raw = _saved_identity_ptf(tmp_path)
    header.update(k=6, times=[float(t) for t in range(7)],
                  leg_labels=list(leg_labels(6)), leg_dims=[2] * 13)
    _write_ptf(path, header, raw)
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "size guard" in err and "Traceback" not in err


def _write_custom_config(tmp_path, unitaries=None, joint=None, **params):
    """A `custom` config supplied as PTF1-mats bundles; by default two
    partial swaps of a |+> system with a |0> environment."""
    u = partial_swap_unitary(0.7)
    ptf.save_matrices(tmp_path / "unitaries.mats",
                      [u, u] if unitaries is None else unitaries)
    ptf.save_matrices(tmp_path / "joint.mats",
                      [np.kron(PP, P0) if joint is None else joint])
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({
        "model": "custom",
        "params": {"unitaries_file": str(tmp_path / "unitaries.mats"),
                   "initial_joint_file": str(tmp_path / "joint.mats"),
                   **params},
        "times": [0.0, 1.0, 2.0],
    }))
    return cfg


def test_simulate_custom_round_trip(tmp_path):
    cfg = _write_custom_config(tmp_path, system_dim=2)
    out = tmp_path / "custom.ptf"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0
    u = partial_swap_unitary(0.7)
    direct = build_process_tensor(
        SEModel(system_dim=2, env_dim=2, initial_joint=np.kron(PP, P0),
                step_unitaries=(u, u)), (0.0, 1.0, 2.0))
    assert np.array_equal(ProcessTensor.load(out).choi, direct.choi)
    report = tmp_path / "report.json"
    assert main(["analyze", str(out), "--markov", "--bonddim",
                 "-o", str(report)]) == 0
    analyses = json.loads(report.read_text())["analyses"]
    assert analyses["markov"]["is_markov"] is False
    assert analyses["bonddim"]["bond_dims"][1] > 1


def test_simulate_and_analyze_qutrit_custom(tmp_path):
    """End to end at d = 3: two seeded random joint unitaries on a qutrit
    and a qubit environment, from a random joint state, through
    `ptr simulate` and every analysis of `ptr analyze`."""
    rng = np.random.default_rng(11)
    cfg = _write_custom_config(
        tmp_path, unitaries=[random_unitary(6, rng), random_unitary(6, rng)],
        joint=random_density(6, rng), system_dim=3)
    out = tmp_path / "qutrit.ptf"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0
    report = tmp_path / "report.json"
    assert main(["analyze", str(out), "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["input"]["system_dim"] == 3 and doc["input"]["k"] == 2
    analyses = doc["analyses"]
    assert set(analyses) == {"markov", "divisibility", "measure", "bonddim",
                             "classical"}
    assert analyses["markov"]["is_markov"] is False
    assert analyses["measure"]["n_value"] > 1e-8
    assert analyses["bonddim"]["bond_dims"][1] > 1


@pytest.mark.parametrize("dims", ["ab", [[4.5, 4], [4, 4]],
                                  [[-1, 4], [4, 4]], [[4, 4]], None])
def test_simulate_custom_malformed_bundle_exit_3(tmp_path, capsys, dims):
    """`dims` that is not `count` pairs of positive integers, or is
    missing, is a malformed file, found before any blob is read."""
    cfg = _write_custom_config(tmp_path)
    bundle = tmp_path / "unitaries.mats"
    line, blob = bundle.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    if dims is None:
        del header["dims"]
    else:
        header["dims"] = dims
    bundle.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.ptf")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: dims must be"), err


@pytest.mark.parametrize("change", ["short", "long", "huge dims"])
def test_simulate_custom_bundle_of_wrong_length_exit_3(tmp_path, capsys,
                                                       change):
    """A bundle blob eight bytes short or long, or a header declaring a
    16 TiB matrix over a small blob, is a malformed file: the blob's
    length is checked against the header before anything is allocated."""
    cfg = _write_custom_config(tmp_path)
    bundle = tmp_path / "unitaries.mats"
    line, blob = bundle.read_bytes().split(b"\n", 1)
    if change == "short":
        blob = blob[:-8]
    elif change == "long":
        blob += bytes(8)
    else:
        header = json.loads(line)
        header["dims"][0] = [2 ** 20, 2 ** 20]
        line = json.dumps(header).encode("utf-8")
    bundle.write_bytes(line + b"\n" + blob)
    with pytest.raises(FormatError, match="blob holds"):
        ptf.load_matrices(bundle)
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.ptf")]) == 3
    assert capsys.readouterr().err.startswith("error: blob holds")
    assert not (tmp_path / "x.ptf").exists()


def test_simulate_custom_non_finite_bundle_exit_3(tmp_path, capsys):
    cfg = _write_custom_config(tmp_path)
    ptf.save_matrices(tmp_path / "joint.mats", [np.full((4, 4), np.nan)])
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.ptf")]) == 3
    assert capsys.readouterr().err.startswith("error: blob holds non-finite")


@pytest.mark.parametrize("key, overrides", [
    ("times", {"times": ["a", 1]}),
    ("omega", {"params": {"omega": "x"}}),
    ("gamma", {"model": "b1", "params": {"gamma": "x"}}),
    ("seed", {"model": "markov", "seed": "s"}),
    ("system_dim", None),
    ("params", {"params": [1]}),
    ("omega", {"params": {"omega": 1e400}}),
    ("g", {"model": "b1", "params": {"g": 1e400}}),
    ("kraus_rank", {"model": "markov", "params": {"kraus_rank": 2.9}}),
    ("kraus_rank", {"model": "markov", "params": {"kraus_rank": True}}),
    ("seed", {"model": "markov", "seed": 3.7}),
    ("seed", {"model": "markov", "seed": False}),
    ("omega", {"params": {"omega": True}}),
    ("times", {"times": [False, True]}),
    ("system_dim", {"model": "custom", "params": {"system_dim": 2.5}}),
    ("system_dim", {"model": "custom", "params": {"system_dim": True}}),
    ("system_dim", {"model": "custom", "params": {"system_dim": 1}}),
    ("kraus_rank", {"model": "markov", "params": {"kraus_rank": "2"}}),
    ("seed", {"model": "markov", "seed": "3"}),
    ("omega", {"params": {"omega": "1.5"}}),
    ("gamma", {"model": "b1", "params": {"gamma": "1"}}),
    ("times", {"times": ["0", "0.5", "1"]}),
    ("omega", {"params": {"omgea": 2.0, "omega": "x"}}),
])
def test_simulate_malformed_config_value_exit_2(tmp_path, capsys, key,
                                                overrides):
    """A value of the wrong type exits 2 naming its key: JSON booleans and
    numeric strings for every numeric key and fractional values for the
    int keys included, which int() and float() would otherwise coerce
    quietly, and a custom system below dimension 2. A bad value is named
    before an unknown ``params`` key beside it."""
    if overrides is None:
        cfg = _write_custom_config(tmp_path, system_dim="x")
    elif overrides.get("model") == "custom":
        cfg = _write_custom_config(tmp_path, **overrides["params"])
    else:
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.ptf")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r}"), err


@pytest.mark.parametrize("model, params, key", [
    ("b2", {"omgea": 2.0}, "omgea"),
    ("b1", {"rho_s": "plus"}, "rho_s"),
    ("markov", {"seed": 3}, "seed"),
])
def test_simulate_unknown_param_exit_2(tmp_path, capsys, model, params, key):
    """A ``params`` key that the model does not read, a misspelling or
    another model's key, exits 2 naming it, where it used to leave the
    default in place; a markov model's seed is a top-level key."""
    cfg = _write_config(tmp_path / "cfg.json", model=model, params=params)
    out = tmp_path / "x.ptf"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r}: not a parameter of "
                          f"model {model!r}"), err
    assert not out.exists()


def test_unknown_param_error_lists_readme_keys(tmp_path, capsys):
    """The keys that the refusal of an unknown parameter lists for each
    model are those of the README's per-model table (parenthesized
    remarks aside)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    rows = {}
    for line in readme.splitlines():
        row = re.fullmatch(r"\| `(\w+)` +\| (.*) \|", line)
        if row:
            rows[row[1]] = re.findall(r"`(\w+)`",
                                      re.sub(r"\([^)]*\)", "", row[2]))
    assert sorted(rows) == ["b1", "b2", "b3", "custom", "markov"]
    for model, keys in rows.items():
        if model == "custom":
            cfg = _write_custom_config(tmp_path, extra=1)
        else:
            cfg = _write_config(tmp_path / "cfg.json", model=model,
                                params={"extra": 1})
        assert main(["simulate", str(cfg), "-o", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: config key 'extra': not a parameter of "
                       f"model {model!r}, which takes {', '.join(keys)}\n")


@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1e-9"),
    ("--bond-cutoff", "nan"), ("--bond-cutoff", "inf"),
    ("--bond-cutoff", "1"), ("--bond-cutoff", "-0.1"),
])
def test_analyze_out_of_range_flag_exit_2(tmp_path, capsys, flag, value):
    """--tol must be finite and >= 0 and --bond-cutoff in [0, 1); any
    other value exits 2 naming the flag, and nothing is written."""
    ptf_path = tmp_path / "b2.ptf"
    assert main(["simulate", str(_write_config(tmp_path / "b2.json")),
                 "-o", str(ptf_path)]) == 0
    capsys.readouterr()
    report, csv = tmp_path / "report.json", tmp_path / "data.csv"
    assert main(["analyze", str(ptf_path), f"{flag}={value}",
                 "-o", str(report), "--csv", str(csv)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must"), flag
    assert not report.exists() and not csv.exists()


@pytest.mark.parametrize("case", ["missing ptf", "missing bundle",
                                  "simulate -o", "analyze -o", "analyze --csv",
                                  "missing config"])
def test_unreadable_or_unwritable_path_exit_2(tmp_path, capsys, case):
    cfg = _write_config(tmp_path / "b2.json")
    ptf_path = tmp_path / "b2.ptf"
    assert main(["simulate", str(cfg), "-o", str(ptf_path)]) == 0
    capsys.readouterr()
    nowhere = str(tmp_path / "no" / "such" / "file")
    argv = {
        "missing ptf": ["analyze", nowhere],
        "missing bundle": ["simulate", str(_write_custom_config(
            tmp_path, unitaries_file=nowhere)), "-o", str(ptf_path)],
        "simulate -o": ["simulate", str(cfg), "-o", nowhere],
        "analyze -o": ["analyze", str(ptf_path), "--bonddim", "-o", nowhere],
        "analyze --csv": ["analyze", str(ptf_path), "--bonddim",
                          "--csv", nowhere],
        "missing config": ["simulate", nowhere, "-o", str(ptf_path)],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and nowhere in err, err


def test_analyze_malformed_file_exit_3(tmp_path):
    bad = tmp_path / "bad.ptf"
    bad.write_bytes(b"this is not a process tensor\n\x00\x01")
    assert main(["analyze", str(bad)]) == 3


def _saved_identity_ptf(tmp_path):
    """A valid two-step PTF1 file, split into its header and doubles."""
    ident = QuantumMap.identity(2).choi
    pt = ProcessTensor(np.kron(np.kron(ident, ident), np.eye(2) / 2), 2,
                       (0.0, 1.0, 2.0))
    path = tmp_path / "id.ptf"
    pt.save(path)
    line, blob = path.read_bytes().split(b"\n", 1)
    return path, json.loads(line), np.frombuffer(blob, dtype="<f8").copy()


def _write_ptf(path, header, raw):
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n"
                     + raw.tobytes())


def test_analyze_non_numeric_leg_dims_exit_3(tmp_path, capsys):
    path, header, raw = _saved_identity_ptf(tmp_path)
    header["leg_dims"] = "abc"
    _write_ptf(path, header, raw)
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: leg_dims")


def test_analyze_leg_dims_mismatch_exit_3(tmp_path, capsys):
    """The product matches d**(2K+1), but the legs are not all qubits."""
    path, header, raw = _saved_identity_ptf(tmp_path)
    header["leg_dims"] = [4, 8, 1, 1, 1]
    _write_ptf(path, header, raw)
    assert main(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: leg dims")
    assert "Traceback" not in err


def test_analyze_trace_convention_mismatch_exit_3(tmp_path, capsys):
    path, header, raw = _saved_identity_ptf(tmp_path)
    header["trace_convention"] = "unit_trace"
    _write_ptf(path, header, raw)
    assert main(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: trace convention")
    assert "Traceback" not in err


def test_analyze_leg_labels_mismatch_exit_3(tmp_path, capsys):
    """The labels of a two-step file in chronological, not stored, order."""
    path, header, raw = _saved_identity_ptf(tmp_path)
    header["leg_labels"] = header["leg_labels"][::-1]
    _write_ptf(path, header, raw)
    assert main(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: leg labels")
    assert "Traceback" not in err


def test_analyze_system_dim_1_exit_3(tmp_path, capsys):
    """A one-step tensor of dimension 1 is refused at load, so no
    analysis, not even --bonddim alone, reaches it and exits 2."""
    path = tmp_path / "d1.ptf"
    header = {"format": "PTF1", "system_dim": 1, "k": 1, "times": [0.0, 1.0],
              "leg_labels": list(leg_labels(1)), "leg_dims": [1, 1, 1],
              "trace_convention": "tp_choi_trace_d"}
    _write_ptf(path, header, np.array([1.0, 0.0]))
    assert main(["analyze", str(path), "--bonddim"]) == 3
    assert capsys.readouterr().err.startswith("error: system_dim must be")


def test_analyze_measure_solves_no_full_size_spectrum(tmp_path, b2_pure_pt3,
                                                      monkeypatch):
    """`ptr analyze --measure` on a low-rank tensor eigensolves nothing of
    full size: the header's min eigenvalue and the measure share one
    sketched spectrum, whose eigensolve is at most dim/8 wide, and the
    measure decomposes nothing larger than a block marginal. It
    Hermitizes no full-size copy."""
    path = tmp_path / "b2.ptf"
    b2_pure_pt3.save(path)
    d, dim = 2, b2_pure_pt3.dim
    inputs = {"eigh": [], "eigvalsh": [], "hermitize": []}
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def counted(a, *args, _orig=orig, _name=name, **kwargs):
            inputs[_name].append(a)
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    for module in (linalg, markov, process_tensor, qops):
        def recorded(m, *args, _orig=module.hermitize, **kwargs):
            inputs["hermitize"].append(m)
            return _orig(m, *args, **kwargs)
        monkeypatch.setattr(module, "hermitize", recorded)
    loaded = []

    def load(p, *args, _orig=ptf.load):
        loaded.append(_orig(p, *args))
        return loaded[-1]
    monkeypatch.setattr(ptf, "load", load)
    assert main(["analyze", str(path), "--measure",
                 "-o", str(tmp_path / "r.json")]) == 0
    sizes = {name: [np.shape(a)[-1] for a in arrays]
             for name, arrays in inputs.items()}
    assert all(n <= d * d for n in sizes["eigh"]), sizes["eigh"]
    assert sizes["eigvalsh"].count(dim) == 0, sizes["eigvalsh"]
    assert max(sizes["eigvalsh"]) <= dim // 8, sizes["eigvalsh"]
    assert all(n < dim for n in sizes["hermitize"]), sizes["hermitize"]
    assert len(loaded) == 1 and loaded[0].spectrum.shape == (dim,)


def test_analyze_one_step_file(tmp_path):
    """A one-step process from an uncorrelated initial state: every
    analysis runs, the causal-break test runs its one break at slot 0 and
    finds no memory, and the divisibility report is vacuous."""
    ident = QuantumMap.identity(2).choi
    path = tmp_path / "k1.ptf"
    ProcessTensor(np.kron(ident, np.eye(2) / 2), 2, (0.0, 1.0)).save(path)
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(path), "-o", str(report_path)]) == 0
    analyses = json.loads(report_path.read_text())["analyses"]
    assert sorted(analyses) == ["bonddim", "classical", "divisibility",
                                "markov", "measure"]
    assert analyses["markov"]["is_markov"] is True
    assert analyses["markov"]["breaks_tested"] == [[0, 1]]
    # every break outcome leaves the same state: rounding level, one ulp
    assert analyses["markov"]["max_deviation"] <= np.finfo(float).eps
    assert analyses["divisibility"]["triple_defects"] == []
    assert analyses["divisibility"]["max_defect"] == 0.0


def test_analyze_nan_blob_exit_3(tmp_path, capsys):
    path, header, raw = _saved_identity_ptf(tmp_path)
    raw[0] = np.nan
    _write_ptf(path, header, raw)
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: blob holds non-finite")


@pytest.mark.parametrize("entries, value, times", [
    ([(5, 0, 0)], np.inf, None),
    ([(5, 0, 0), (0, 5, 0)], np.inf, None),
    ([(3, 3, 1)], -np.inf, None),
    ([(7, 2, 1)], np.nan, None),
    ([(0, 0, 0)], np.nan, [0.0, 2.0, 1.0]),
])
def test_analyze_non_finite_blob_keeps_its_message(tmp_path, capsys, entries,
                                                   value, times):
    """An infinite or NaN double anywhere, off the diagonal, in a
    Hermitian pair, in an imaginary part, or in a file whose times are
    also out of order, is refused as non-finite: the Hermiticity scan
    fails on it, and only then is the blob searched."""
    path, header, raw = _saved_identity_ptf(tmp_path)
    for row, col, part in entries:
        raw[2 * (row * 32 + col) + part] = value
    if times is not None:
        header["times"] = times
    _write_ptf(path, header, raw)
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err == "error: blob holds non-finite entries\n"


@pytest.mark.parametrize("cut", [0, 8])
def test_analyze_blob_size_mismatch_exit_3(tmp_path, capsys, cut):
    """Eight trailing bytes, or a blob eight bytes short, are malformed
    data."""
    path, header, raw = _saved_identity_ptf(tmp_path)
    blob = raw.tobytes()
    blob = blob[:-cut] if cut else blob + bytes(8)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        f"error: blob holds {len(blob)} bytes, expected {raw.nbytes}")


def test_analyze_non_hermitian_blob_exit_3(tmp_path, capsys):
    path, header, raw = _saved_identity_ptf(tmp_path)
    raw[1] = 0.5  # an imaginary part on the diagonal
    _write_ptf(path, header, raw)
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: choi asymmetry")


@pytest.mark.parametrize("entries, message", [
    ({(0, 1): 1.7e308, (1, 0): -1.7e308}, "choi asymmetry inf"),
    ({(0, 1): 1.7e308, (1, 0): 1.7e308, (2, 3): 0.1 + 1e-9, (3, 2): 0.1},
     "not a causal comb"),
], ids=["opposite", "symmetrized"])
def test_analyze_overflowing_asymmetry_exit_3(tmp_path, capsys, b2_pt,
                                              entries, message):
    """Finite entries near 1.7e308 in a B.2 tensor: where (0, 1) and
    (1, 0) differ by more than the largest double the Hermiticity scan
    reads an infinite asymmetry; where they agree, but a tiny asymmetry
    elsewhere makes the constructor symmetrize, their mean stays finite.
    Both files are refused with exit 3, without a numpy overflow warning."""
    path = tmp_path / "asym.ptf"
    b2_pt.save(path)
    line, blob = path.read_bytes().split(b"\n", 1)
    raw = np.frombuffer(blob, dtype="<f8").copy()
    for (i, j), value in entries.items():
        raw[2 * (i * b2_pt.dim + j)] = value  # real parts
    _write_ptf(path, json.loads(line), raw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", str(path)]) == 3
    assert not caught, [str(w.message) for w in caught]
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_analyze_non_causal_blob_exit_3(tmp_path, capsys):
    """A B.2 tensor with its legs reversed is Hermitian and PSD, but its
    final output no longer traces out to the earlier steps."""
    pt = build_process_tensor(model_b2(omega=1.0), (0.0, 0.7, 1.4))
    n = 2 * pt.n_steps + 1
    rev = list(range(n - 1, -1, -1))
    t = pt.choi.reshape((pt.system_dim,) * (2 * n))
    t = t.transpose(rev + [a + n for a in rev])
    path = tmp_path / "reversed.ptf"
    ProcessTensor(t.reshape(pt.dim, pt.dim), 2, pt.times).save(path)
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: not a causal comb")


def test_analyze_non_psd_blob_exit_3(tmp_path, capsys):
    """Causal, but its initial 'state' has a negative eigenvalue."""
    path = tmp_path / "negative.ptf"
    ProcessTensor(np.kron(QuantumMap.identity(2).choi, np.diag([1.5, -0.5])),
                  2, (0.0, 1.0)).save(path)
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: not positive semidefinite")


@pytest.mark.parametrize("k", [3, 4])
def test_analyze_planted_negative_eigenvalue_exit_3(tmp_path, capsys,
                                                    monkeypatch, k):
    """Identity steps on an initial 'state' diag(1 + e, -e): a causal comb
    of rank 2 whose min eigenvalue is -2**k e, so its spectrum is sketched.
    A plant at -2 tol is refused at load and one at -tol/2 loads, with no
    full-size eigensolve either way."""
    sizes = []
    orig = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return orig(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    ident = QuantumMap.identity(2).choi
    tol = PSD_CLIP * 2 ** k  # the load tolerance at trace 2**k
    for planted, code in ((-2 * tol, 3), (-tol / 2, 0)):
        e = -planted / 2 ** k
        path = tmp_path / f"plant{code}.ptf"
        ProcessTensor(tensor_product(*[ident] * k, np.diag([1 + e, -e])),
                      2, range(k + 1)).save(path)
        assert main(["analyze", str(path), "--bonddim"]) == code
        err = capsys.readouterr().err
        if code == 3:
            assert err.startswith("error: not positive semidefinite")
    assert sizes and max(sizes) <= 2 ** (2 * k + 1) // 8, sizes


@pytest.mark.parametrize("scale", [0.0, 0.5, 2.0, 1e200, 1e300])
def test_analyze_wrong_trace_exit_3(tmp_path, capsys, b2_pure_pt3, scale):
    """A causal PSD comb whose trace is not d**k breaks the
    tp_choi_trace_d convention of its header: it is refused at load, the
    zero tensor included, instead of reaching an analysis."""
    path = tmp_path / "scaled.ptf"
    ProcessTensor(b2_pure_pt3.choi * scale, 2, b2_pure_pt3.times).save(path)
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: trace "), scale


@pytest.mark.parametrize("flag", [None, "--markov", "--divisibility",
                                  "--measure", "--bonddim", "--classical"])
def test_analyze_overflowing_trace_exit_3(tmp_path, capsys, b2_pure_pt3,
                                          flag):
    """A causal PSD comb scaled by 1e308 has finite entries but a trace
    that overflows to inf, which would make every load tolerance inf: it
    is refused at load under every analysis flag, before any numpy
    warning (an error under this suite) or an analysis can run."""
    path = tmp_path / "huge.ptf"
    ProcessTensor(b2_pure_pt3.choi * 1e308, 2, b2_pure_pt3.times).save(path)
    assert np.isfinite(b2_pure_pt3.choi * 1e308).all()
    assert main(["analyze", str(path)] + ([flag] if flag else [])) == 3
    err = capsys.readouterr().err
    assert err == "error: trace inf is not finite\n", err


# JSON values that are no path: an integer or a boolean would be taken as a
# file descriptor, the rest raise inside open().
_NOT_PATHS = {"int": 1, "true": True, "list": ["x.ptf"], "object": {"a": 1},
              "float": 3.5, "null": None}


@pytest.mark.parametrize("argv", [
    ["simulate", "b2", {"rho_s": [[[math.nan, 0], [0, 0]],
                                  [[0, 0], [1, 0]]]}],
    ["simulate", "b3", {"rho_e": [[[1, 0], [0, 0]],
                                  [[0, 0], [math.inf, 0]]]}],
    ["simulate", "markov", {"rho0": [[[0.5, 0], [math.nan, 0]],
                                     [[0, 0], [0.5, 0]]]}],
    ["simulate", "b1", {"rho0": [[[0.5, 0], [math.nan, 0]],
                                 [[0, 0], [0.5, 0]]]}],
    ["simulate", "b1", {"dephasing_axis": ["z"]}],
    ["simulate", "b1", {"rho0": [[[1 / 3, 0] if i == j else [0, 0]
                                  for j in range(3)] for i in range(3)]}],
    ["examples", "b1", "--gamma-g", "nan"],
    *[["simulate", "b2", {}, {"output": v}] for v in _NOT_PATHS.values()],
    *[["simulate", "custom", {key: v}] for key in
      ("unitaries_file", "initial_joint_file") for v in _NOT_PATHS.values()],
], ids=["b2-nan-state", "b3-inf-state", "markov-nan-state", "b1-nan-state",
        "b1-list-axis", "b1-qutrit-state", "examples-b1-nan-gamma",
        *[f"{key}-{kind}" for key in ("output", "unitaries_file",
                                      "initial_joint_file")
          for kind in _NOT_PATHS]])
def test_cli_malformed_input_exit_2(tmp_path, capsys, argv):
    """Non-finite state entries (JSON's NaN and Infinity), an unhashable
    dephasing axis, a qutrit state for the qubit model B.1, a NaN bound and
    a config path that is not a non-empty string (the `output` of a config
    run without -o, or a bundle file of the `custom` model) end in exit 2
    with an error line, not in a traceback, and nothing is written; the
    line names a bad path's key."""
    out, paths = tmp_path / "x.ptf", {}
    if argv[0] == "simulate":
        extra = argv[3] if len(argv) > 3 else {}  # top-level config keys
        if argv[1] == "custom":
            paths = argv[2]
            cfg = _write_custom_config(tmp_path, **paths)
        else:
            paths = extra
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"model": argv[1], "params": argv[2],
                                       "times": [0.0, 1.0, 2.0], **extra}))
        argv = ["simulate", str(cfg)] + ([] if extra else ["-o", str(out)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert all(f"config key {key!r}" in err for key in paths), err
    assert captured.out == "" and not out.exists()


# 400-digit integers lie beyond float range
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.integers(10 ** 399, 10 ** 400 - 1)
    | st.integers(-10 ** 400 + 1, -10 ** 399),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8)
_HEADER_KEYS = ("format", "system_dim", "k", "times", "leg_labels",
                "leg_dims", "trace_convention")
_BAD_DOUBLES = (0.0, math.inf, -math.inf, math.nan, 1e300, -1e300)
_MUTATION = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(_HEADER_KEYS), _JSON),
    st.tuples(st.just("delete"), st.sampled_from(_HEADER_KEYS)),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("overwrite"), st.floats(0.0, 1.0, exclude_max=True),
              st.floats(0.0, 1.0), st.sampled_from(_BAD_DOUBLES)),
)


@pytest.fixture(scope="module")
def saved_b2(tmp_path_factory):
    """B.2 files at K = 1, 2 and 3, each split into its header and
    doubles. K = 3 is the first whose spectrum is sketched."""
    out = {}
    for k in (1, 2, 3):
        path = tmp_path_factory.mktemp("fuzz") / f"b2-k{k}.ptf"
        build_process_tensor(model_b2(omega=1.0),
                             [0.7 * j for j in range(k + 1)]).save(path)
        line, blob = path.read_bytes().split(b"\n", 1)
        out[k] = (path, json.loads(line), np.frombuffer(blob, dtype="<f8"))
    return out


@settings(max_examples=100, deadline=None)
@given(k=st.sampled_from((1, 2, 3)),
       mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_analyze_fuzzed_ptf_never_raises(saved_b2, k, mutations):
    """Mutated header fields, truncated blobs and runs of overwritten
    doubles end in exit code 3 when the file does not load and 0 or 2
    when it does, never in a traceback; a file that loads is Hermitian,
    causal and PSD within the load tolerance."""
    path, header, raw = saved_b2[k]
    header, raw = dict(header), raw.copy()
    truncate_to = None
    for mutation in mutations:
        kind = mutation[0]
        if kind == "replace":
            header[mutation[1]] = mutation[2]
        elif kind == "delete":
            header.pop(mutation[1], None)
        elif kind == "truncate":
            truncate_to = int(mutation[1] * raw.nbytes)
        else:  # a run of doubles, from one up to the whole blob
            start = int(mutation[1] * raw.size)
            stop = start + max(1, int(mutation[2] * raw.size))
            raw[start:stop] = mutation[3]
    blob = raw.tobytes()[:truncate_to]
    fuzzed = path.with_name("fuzzed.ptf")
    fuzzed.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
    code = main(["analyze", str(fuzzed)])
    try:
        pt = ProcessTensor.load(fuzzed)
    except FormatError:
        assert code == 3
        return
    assert code in (0, 2)
    tol = PSD_CLIP * max(1.0, abs(pt.trace))
    assert np.abs(pt.choi - pt.choi.conj().T).max() <= 1e-8
    assert pt.causality_defect() <= tol
    assert pt.min_eigenvalue >= -tol


def test_analyze_full_report(tmp_path):
    cfg = tmp_path / "b3.json"
    cfg.write_text(json.dumps({
        "model": "b3",
        "params": {"rho_s": "plus", "rho_e": "zero"},
        "times": [0.0, 1.0, 2.0],
    }))
    ptf = tmp_path / "b3.ptf"
    assert main(["simulate", str(cfg), "-o", str(ptf)]) == 0
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "data.csv"
    assert main(["analyze", str(ptf), "-o", str(report_path),
                 "--csv", str(csv_path)]) == 0
    report = json.loads(report_path.read_text())
    analyses = report["analyses"]
    assert analyses["markov"]["is_markov"] is False
    assert analyses["divisibility"]["max_defect"] > 0.0
    assert analyses["measure"]["n_value"] > 0.0
    assert analyses["measure"]["metric"] == "relative_entropy"
    assert analyses["measure"]["is_upper_bound"] is False
    assert analyses["bonddim"]["bond_dims"][1] > 1
    assert analyses["classical"]["max_violation"] > 0.1
    header = csv_path.read_text().splitlines()[0]
    assert header == "series,x,y"


# The keys of a default ptr-report-v1 report. A result type's fields enter
# the report through ``dataclasses.asdict``, so adding a field to one is a
# deliberate edit of this mapping.
REPORT_KEYS = {
    "": {"format", "input", "analyses", "tolerances", "provenance"},
    "input": {"path", "sha256", "system_dim", "k", "times", "trace",
              "min_eigenvalue"},
    "tolerances": {"tol", "bond_cutoff"},
    "provenance": {"config_sha256", "basis_id", "wall_time_s"},
    "analyses": {"markov", "divisibility", "measure", "bonddim", "classical"},
    "markov": {"is_markov", "max_deviation", "witness", "tolerance",
               "breaks_tested", "skipped_conditionals", "inconclusive_groups"},
    "witness": {"break_slot", "readout_step", "povm_outcome", "preparation",
                "past"},
    "divisibility": {"max_defect", "is_divisible", "triple_defects",
                     "pair_cp_defects", "tolerance", "filler"},
    "measure": {"n_value", "metric", "is_upper_bound", "bond_dims"},
    "bonddim": {"bond_dims", "cutoff"},
    "classical": {"instrument", "final_povm", "is_markov", "max_violation",
                  "kolmogorov_ok", "table"},
    "table": {"shape", "outcome_labels", "probabilities"},
}


def test_default_report_keys_are_pinned(tmp_path, b2_pt):
    """`ptr analyze` with no flags on a K = 2 b2 file writes exactly the
    pinned keys, down to the witness records and the classical table."""
    path = tmp_path / "b2.ptf"
    b2_pt.save(path)
    assert main(["analyze", str(path), "-o", str(tmp_path / "r.json")]) == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    analyses = doc["analyses"]
    witness = analyses["markov"]["witness"]
    assert len(witness) == 2
    got = {"": doc, "analyses": analyses, "witness": witness[0],
           "table": analyses["classical"]["table"],
           **{k: doc[k] for k in ("input", "tolerances", "provenance")},
           **analyses}
    assert {k: set(v) for k, v in got.items()} == REPORT_KEYS
    assert set(witness[1]) == REPORT_KEYS["witness"]
    assert doc["format"] == "ptr-report-v1"
    assert analyses["divisibility"]["filler"] == "identity"
    assert analyses["classical"]["instrument"] == \
        "computational measure-and-reprepare"
    assert analyses["classical"]["final_povm"] == "computational"


def test_analyze_metric_option_is_usage_error(tmp_path, capsys, b2_pt):
    """The relative entropy is the one measure: ``--metric`` is an unknown
    option, a usage error with exit 2 and no traceback."""
    path = tmp_path / "b2.ptf"
    b2_pt.save(path)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(path), "--metric", "trace_distance"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --metric" in err
    assert "Traceback" not in err


def test_analyze_all_clear_on_memoryless(tmp_path):
    cfg = tmp_path / "mk.json"
    cfg.write_text(json.dumps({
        "model": "markov", "seed": 3, "times": [0.0, 1.0, 2.0],
    }))
    ptf = tmp_path / "mk.ptf"
    main(["simulate", str(cfg), "-o", str(ptf)])
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(ptf), "-o", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    analyses = report["analyses"]
    assert analyses["markov"]["is_markov"] is True
    assert analyses["divisibility"]["max_defect"] <= 1e-8
    assert analyses["measure"]["n_value"] <= 1e-8
    assert analyses["bonddim"]["bond_dims"] == [1, 1]
    assert analyses["classical"]["is_markov"] is True


def test_analyze_b1_remark_in_one_report(tmp_path, b1_pt):
    ptf = tmp_path / "b1.ptf"
    b1_pt.save(ptf)
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(ptf), "--markov", "--divisibility",
                 "-o", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["analyses"]["divisibility"]["max_defect"] <= 1e-6
    assert report["analyses"]["markov"]["is_markov"] is False
    assert report["analyses"]["markov"]["max_deviation"] > 0.1


def test_cli_import_loads_no_scipy():
    """`import ptmarkov.cli` leaves scipy unloaded: importing scipy.linalg
    about doubles the interpreter's set-up time."""
    import subprocess
    import sys
    src = str(Path(ptmarkov.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ptmarkov.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_report_reproducible_modulo_wall_time(tmp_path):
    cfg = _write_config(tmp_path / "b2.json")
    ptf = tmp_path / "b2.ptf"
    main(["simulate", str(cfg), "-o", str(ptf)])
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        assert main(["analyze", str(ptf), "--markov", "--bonddim",
                     "-o", str(p)]) == 0
    reports = [json.loads(p.read_text()) for p in paths]
    for rep in reports:
        rep["provenance"].pop("wall_time_s")
    assert json.dumps(reports[0], sort_keys=True) == \
        json.dumps(reports[1], sort_keys=True)


@pytest.fixture(scope="module")
def b2_files(tmp_path_factory):
    """B.2 PTF1 files keyed by K: the K = 2 blob (16 KiB) is hashed inline
    by ``ptf.load``, the K = 4 blob (4 MiB) on its worker thread."""
    root = tmp_path_factory.mktemp("b2")
    paths = {}
    for k in (2, 4):
        cfg = _write_config(root / f"b2-k{k}.json",
                            times=[j * math.pi / 4 for j in range(k + 1)])
        paths[k] = root / f"b2-k{k}.ptf"
        assert main(["simulate", str(cfg), "-o", str(paths[k])]) == 0
    assert (paths[2].stat().st_size < ptf.THREAD_DIGEST_BYTES
            <= paths[4].stat().st_size)
    return paths


@pytest.mark.parametrize("k", [2, 4], ids=["k2-inline", "k4-thread"])
def test_report_sha256_is_the_file_digest(b2_files, k, tmp_path, monkeypatch):
    """The load hashes the bytes it reads, so the report's digest is the
    file's, and the file is opened once."""
    import builtins
    path = b2_files[k]
    opened = []

    def counted(file, *args, _orig=builtins.open, **kwargs):
        opened.append(str(file))
        return _orig(file, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", counted)
    assert main(["analyze", str(path), "--bonddim",
                 "-o", str(tmp_path / "r.json")]) == 0
    monkeypatch.undo()
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["input"]["sha256"] == \
        hashlib.sha256(path.read_bytes()).hexdigest()
    assert opened.count(str(path)) == 1


class _RecordedDigest:
    """A SHA-256 that records the thread each ``update`` ran on."""

    def __init__(self):
        self.sha, self.threads = hashlib.sha256(), []

    def update(self, data):
        self.threads.append(threading.current_thread())
        self.sha.update(data)


@pytest.mark.parametrize("k", [2, 4], ids=["k2-inline", "k4-thread"])
def test_load_digest_is_the_file_digest(b2_files, k):
    """Header and blob are hashed in file order on both sides of
    ``THREAD_DIGEST_BYTES``; the blob goes to a worker thread only above
    it, and that thread has ended when ``load`` returns."""
    before = threading.active_count()
    digest = _RecordedDigest()
    ptf.load(b2_files[k], digest)
    assert threading.active_count() == before
    assert digest.sha.hexdigest() == \
        hashlib.sha256(b2_files[k].read_bytes()).hexdigest()
    main_thread = threading.main_thread()
    header, blob = digest.threads
    assert header is main_thread
    assert (blob is main_thread) == (k == 2)


def test_refused_k4_load_leaves_no_thread(b2_files, tmp_path, capsys):
    """A K = 4 blob with one NaN is refused with its message and exit
    code, and the digest thread is joined before the refusal."""
    raw = bytearray(b2_files[4].read_bytes())
    blob_at = raw.index(b"\n") + 1
    raw[blob_at + 8 * 1000:blob_at + 8 * 1001] = np.float64(np.nan).tobytes()
    path = tmp_path / "nan.ptf"
    path.write_bytes(bytes(raw))
    before = threading.active_count()
    with pytest.raises(FormatError, match="blob holds non-finite entries"):
        ptf.load(path, hashlib.sha256())
    assert threading.active_count() == before
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err == "error: blob holds non-finite entries\n"
    assert threading.active_count() == before


@pytest.mark.parametrize("k", [2, 4], ids=["k2-inline", "k4-thread"])
def test_load_raises_what_the_digest_raised(b2_files, k):
    """An exception from ``digest.update`` on the blob, on either side of
    the threshold, is raised by ``load`` and not lost in the thread."""

    class Broken(Exception):
        pass

    class BrokenDigest:
        def update(self, data):
            if isinstance(data, np.ndarray):
                raise Broken("digest failed on the blob")
    before = threading.active_count()
    with pytest.raises(Broken, match="digest failed on the blob"):
        ptf.load(b2_files[k], BrokenDigest())
    assert threading.active_count() == before


@pytest.mark.parametrize("name", ["b1", "b2", "b3"])
def test_examples_pass(name, tmp_path, capsys):
    csv = tmp_path / f"{name}.csv"
    assert main(["examples", name, "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    header, *lines = csv.read_text().splitlines()
    assert header == "series,x,y,marker" and lines
    for line in lines:  # plain floats, no numpy reprs
        assert len([float(cell) for cell in line.split(",")[1:]]) == 3


# ---------------------------------------------------------------------------
# output writes: in place, cut to length, only after the work succeeded
# ---------------------------------------------------------------------------

def test_report_over_longer_report_parses(tmp_path):
    """A short report written over a longer one is cut to its own length."""
    ptf_path = tmp_path / "b2.ptf"
    assert main(["simulate", str(_write_config(tmp_path / "b2.json")),
                 "-o", str(ptf_path)]) == 0
    report, fresh = tmp_path / "report.json", tmp_path / "fresh.json"
    assert main(["analyze", str(ptf_path), "-o", str(report)]) == 0
    long_size = report.stat().st_size
    for path in (report, fresh):
        assert main(["analyze", str(ptf_path), "--bonddim",
                     "-o", str(path)]) == 0
    assert report.stat().st_size < long_size
    docs = [json.loads(p.read_text()) for p in (report, fresh)]
    for doc in docs:
        doc["provenance"].pop("wall_time_s")
        doc["input"].pop("path")
    assert docs[0] == docs[1]


def test_analyze_to_non_regular_target(tmp_path):
    """A target that is not a regular file is written and not cut."""
    ptf_path = tmp_path / "b2.ptf"
    assert main(["simulate", str(_write_config(tmp_path / "b2.json")),
                 "-o", str(ptf_path)]) == 0
    assert main(["analyze", str(ptf_path), "--bonddim", "-o", os.devnull,
                 "--csv", os.devnull]) == 0


def test_failed_write_leaves_a_prefix_refused_exit_3(tmp_path, capsys,
                                                     monkeypatch):
    """A write that raises part way through the blob leaves the file cut
    where writing stopped, over a longer old file too; `ptr simulate`
    exits 2 and `ptr analyze` refuses the prefix with exit 3."""
    cfg = _write_config(tmp_path / "b2.json")
    fresh, out = tmp_path / "fresh.ptf", tmp_path / "out.ptf"
    assert main(["simulate", str(cfg), "-o", str(fresh)]) == 0
    out.write_bytes(b"\xab" * (2 * fresh.stat().st_size))
    calls = []

    def failing(fd, data, _orig=os.write):
        calls.append(len(data))
        if len(calls) == 1:  # the header line
            return _orig(fd, data)
        if len(calls) == 2:  # a first part of the blob
            return _orig(fd, data[:1000])
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(os, "write", failing)
    assert main(["simulate", str(cfg), "-o", str(out)]) == 2
    monkeypatch.undo()
    assert len(calls) == 3
    written = fresh.read_bytes()
    assert out.read_bytes() == written[:written.index(b"\n") + 1001]
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: blob holds")


def test_outputs_open_without_truncating(tmp_path, monkeypatch):
    """Tripwire: `ptr simulate` then `ptr analyze -o --csv` open each
    output once, through ``os.open`` without ``O_TRUNC``, and never
    through ``open`` in a writing mode."""
    import builtins
    cfg = _write_config(tmp_path / "b2.json")
    outputs = [tmp_path / n for n in ("b2.ptf", "report.json", "data.csv")]
    for path in outputs:  # each one overwritten
        path.write_bytes(b"old")
    opened, modes = [], []

    def os_open(path, flags, *args, _orig=os.open):
        opened.append((str(path), flags))
        return _orig(path, flags, *args)

    def builtin_open(file, mode="r", *args, _orig=builtins.open, **kwargs):
        modes.append((str(file), mode))
        return _orig(file, mode, *args, **kwargs)
    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(builtins, "open", builtin_open)
    assert main(["simulate", str(cfg), "-o", str(outputs[0])]) == 0
    assert main(["analyze", str(outputs[0]), "-o", str(outputs[1]),
                 "--csv", str(outputs[2])]) == 0
    monkeypatch.undo()
    assert not [m for m in modes if set(m[1]) & set("wax+")], modes
    assert not [o for o in opened if o[1] & os.O_TRUNC], opened
    assert sorted(p for p, _ in opened) == sorted(map(str, outputs))
    assert json.loads(outputs[1].read_text())["format"] == "ptr-report-v1"
    assert outputs[2].read_text().startswith("series,x,y\n")


@pytest.mark.parametrize("case", ["size guard", "malformed bundle",
                                  "tol nan"])
def test_refused_command_leaves_outputs_unchanged(tmp_path, capsys, case):
    """A command refused before its work is done opens none of its
    outputs: an existing PTF1 file, report or CSV stays byte for byte."""
    ptf_path, report, csv = (tmp_path / n for n in
                             ("old.ptf", "report.json", "data.csv"))
    assert main(["simulate", str(_write_config(tmp_path / "b2.json")),
                 "-o", str(ptf_path)]) == 0
    assert main(["analyze", str(ptf_path), "-o", str(report),
                 "--csv", str(csv)]) == 0
    before = [p.read_bytes() for p in (ptf_path, report, csv)]
    if case == "size guard":
        cfg = _write_config(tmp_path / "big.json",
                            times=[float(i) for i in range(7)])
        argv, code = ["simulate", str(cfg), "-o", str(ptf_path)], 2
    elif case == "malformed bundle":
        cfg = _write_custom_config(tmp_path)
        (tmp_path / "unitaries.mats").write_bytes(b"PTF1-mats\n")
        argv, code = ["simulate", str(cfg), "-o", str(ptf_path)], 3
    else:
        argv, code = ["analyze", str(ptf_path), "--tol", "nan",
                      "-o", str(report), "--csv", str(csv)], 2
    capsys.readouterr()
    assert main(argv) == code
    assert "Traceback" not in capsys.readouterr().err
    assert [p.read_bytes() for p in (ptf_path, report, csv)] == before
