import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from ptmarkov.cli import main
from ptmarkov.defaults import PSD_CLIP
from ptmarkov.process_tensor import leg_labels

from oracles import P0, PP, partial_swap_unitary


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
    from ptmarkov import closest_markov, trace_norm_distance
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


def test_simulate_non_finite_times_exit_2(tmp_path, capsys):
    """A time tag that JSON reads as infinity is a config error, and no
    file is written."""
    cfg = tmp_path / "inf.json"
    cfg.write_text('{"model": "markov", "times": [0, 1e400]}')
    out = tmp_path / "inf.ptf"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
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


def _write_custom_config(tmp_path, **params):
    """A `custom` config: two partial swaps of a |+> system with a |0>
    environment, supplied as PTF1-mats bundles."""
    u = partial_swap_unitary(0.7)
    ptf.save_matrices(tmp_path / "unitaries.mats", [u, u])
    ptf.save_matrices(tmp_path / "joint.mats", [np.kron(PP, P0)])
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


def test_simulate_custom_non_finite_bundle_exit_3(tmp_path, capsys):
    cfg = _write_custom_config(tmp_path)
    ptf.save_matrices(tmp_path / "joint.mats", [np.full((4, 4), np.nan)])
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.ptf")]) == 3
    assert capsys.readouterr().err.startswith("error: blob holds non-finite")


@pytest.mark.parametrize("key, overrides", [
    ("times", {"times": ["a", 1]}),
    ("omega", {"params": {"omega": "x"}}),
    ("nodes", {"model": "b1", "params": {"nodes": "x"}}),
    ("seed", {"model": "markov", "seed": "s"}),
    ("system_dim", None),
    ("params", {"params": [1]}),
])
def test_simulate_malformed_config_value_exit_2(tmp_path, capsys, key,
                                                overrides):
    if overrides is None:
        cfg = _write_custom_config(tmp_path, system_dim="x")
    else:
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "x.ptf")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r}"), err


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


def test_analyze_measure_solves_one_full_size_spectrum(tmp_path, b2_pure_pt3,
                                                       monkeypatch):
    """`ptr analyze --measure` eigensolves the full tensor once (for the
    header's min eigenvalue, reused by the measure) and decomposes nothing
    larger than a block marginal. It Hermitizes no full-size copy: the
    eigensolve reads the loaded tensor itself."""
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

    def load(p, _orig=ptf.load):
        loaded.append(_orig(p))
        return loaded[-1]
    monkeypatch.setattr(ptf, "load", load)
    assert main(["analyze", str(path), "--measure",
                 "-o", str(tmp_path / "r.json")]) == 0
    sizes = {name: [np.shape(a)[-1] for a in arrays]
             for name, arrays in inputs.items()}
    assert all(n <= d * d for n in sizes["eigh"]), sizes["eigh"]
    assert sizes["eigvalsh"].count(dim) == 1, sizes["eigvalsh"]
    assert max(sizes["eigvalsh"]) == dim
    assert all(n < dim for n in sizes["hermitize"]), sizes["hermitize"]
    full = inputs["eigvalsh"][sizes["eigvalsh"].index(dim)]
    assert np.shares_memory(full, loaded[0].choi)


def test_analyze_one_step_file(tmp_path):
    """A one-step process is Markovian by construction: every analysis
    runs and the causal-break and divisibility reports are vacuous."""
    ident = QuantumMap.identity(2).choi
    path = tmp_path / "k1.ptf"
    ProcessTensor(np.kron(ident, np.eye(2) / 2), 2, (0.0, 1.0)).save(path)
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(path), "-o", str(report_path)]) == 0
    analyses = json.loads(report_path.read_text())["analyses"]
    assert sorted(analyses) == ["bonddim", "classical", "divisibility",
                                "markov", "measure"]
    assert analyses["markov"]["is_markov"] is True
    assert analyses["markov"]["breaks_tested"] == []
    assert analyses["markov"]["max_deviation"] == 0.0
    assert analyses["divisibility"]["triple_defects"] == []
    assert analyses["divisibility"]["max_defect"] == 0.0


def test_analyze_nan_blob_exit_3(tmp_path, capsys):
    path, header, raw = _saved_identity_ptf(tmp_path)
    raw[0] = np.nan
    _write_ptf(path, header, raw)
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: blob holds non-finite")


def test_analyze_non_hermitian_blob_exit_3(tmp_path, capsys):
    path, header, raw = _saved_identity_ptf(tmp_path)
    raw[1] = 0.5  # an imaginary part on the diagonal
    _write_ptf(path, header, raw)
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: choi asymmetry")


def test_analyze_non_causal_blob_exit_3(tmp_path, capsys):
    """A B.2 tensor with its legs reversed is Hermitian and PSD, but its
    final output no longer traces out to the earlier steps."""
    pt = build_process_tensor(model_b2(omega=1.0), (0.0, 0.7, 1.4))
    n = pt.legs.n_legs
    rev = list(range(n - 1, -1, -1))
    t = pt.as_tensor().transpose(rev + [a + n for a in rev])
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


def test_analyze_zero_tensor_exit_2(tmp_path, capsys):
    """A well-formed one-step file of zeros has no state to normalize; the
    measure says so instead of eigensolving NaNs."""
    path = tmp_path / "zero.ptf"
    ProcessTensor(np.zeros((8, 8)), 2, (0.0, 1.0)).save(path)
    assert main(["analyze", str(path), "--measure"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: measure needs a positive finite trace")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
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
    """B.2 files at K = 1 and 2, each split into its header and doubles."""
    out = {}
    for k in (1, 2):
        path = tmp_path_factory.mktemp("fuzz") / f"b2-k{k}.ptf"
        build_process_tensor(model_b2(omega=1.0),
                             [0.7 * j for j in range(k + 1)]).save(path)
        line, blob = path.read_bytes().split(b"\n", 1)
        out[k] = (path, json.loads(line), np.frombuffer(blob, dtype="<f8"))
    return out


@settings(max_examples=100, deadline=None)
@given(k=st.sampled_from((1, 2)),
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
    assert analyses["bonddim"]["bond_dims"][1] > 1
    assert analyses["classical"]["max_violation"] > 0.1
    header = csv_path.read_text().splitlines()[0]
    assert header == "series,x,y"


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


@pytest.mark.parametrize("name", ["b1", "b2", "b3"])
def test_examples_pass(name, tmp_path, capsys):
    csv = tmp_path / f"{name}.csv"
    assert main(["examples", name, "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert csv.exists()
