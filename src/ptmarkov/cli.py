"""Batch command-line front end.

Subcommands::

    ptr simulate <config.json> [-o out.ptf]
    ptr analyze <file.ptf> [--markov --divisibility --measure --bonddim
                            --classical] [--tol X] [--exhaustive]
                            [-o report.json] [--csv data.csv]
    ptr examples <b1|b2|b3> [params] [--csv data.csv]

Exit codes: 0 success, 2 configuration or size-guard error (an
out-of-range --tol or --bond-cutoff too) or an unreadable or unwritable
path, 3 malformed data file. This module alone defines ``ptr-report-v1``,
the JSON report of ``ptr analyze``: each analysis entry is the fields of
its library result type (``dataclasses.asdict``) plus fixed fields set in
``cmd_analyze``; the result types carry no serializer. Reports are
deterministic for a fixed configuration and seed except for the
``wall_time_s`` provenance field.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from . import models, ptf
from .defaults import BOND_CUTOFF, MARKOV_TOL
from .errors import ConfigError, FormatError, PtError
from .linalg import fidelity, trace_norm_distance
from .markov import (
    bond_dimension,
    classical_markov_check,
    classical_process,
    confusion_probability,
    divisibility_test,
    markov_test,
    non_markovianity,
)
from .process_tensor import check_matrix_size, leg_labels
from .qops import QuantumMap, default_break, ic_basis
from .random_ops import (
    computational_reprepare_instrument,
    random_control_sequence,
)

NAMED_STATES = {
    "zero": np.array([[1, 0], [0, 0]], dtype=complex),
    "one": np.array([[0, 0], [0, 1]], dtype=complex),
    "plus": np.array([[1, 1], [1, 1]], dtype=complex) / 2,
    "minus": np.array([[1, -1], [-1, 1]], dtype=complex) / 2,
    "plus_i": np.array([[1, -1j], [1j, 1]], dtype=complex) / 2,
    "mixed": np.eye(2, dtype=complex) / 2,
}


def _parse_state(spec, what: str) -> np.ndarray:
    if isinstance(spec, str):
        if spec not in NAMED_STATES:
            raise ConfigError(
                f"{what}: unknown state {spec!r}; choose from "
                f"{sorted(NAMED_STATES)} or give a [re, im] entry matrix")
        return NAMED_STATES[spec].copy()
    try:
        arr = np.asarray(spec, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValueError
    except (TypeError, ValueError):
        raise ConfigError(
            f"{what}: expected a named state or a nested [re, im] matrix")
    except OverflowError:  # an integer beyond float range is not finite
        arr = np.array(math.inf)
    # JSON's NaN and Infinity literals parse to floats
    if not np.isfinite(arr).all():
        raise ConfigError(f"config key {what!r}: state entries must be "
                          f"finite, got {spec!r}")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except ValueError as exc:  # bad UTF-8 or JSON, an int of too many digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _path(cfg: dict, key: str) -> str:
    """``cfg[key]`` if it is a non-empty string, else a ConfigError naming
    the key: a JSON number, boolean, list, object or null is no path (an
    integer would be taken as a file descriptor)."""
    path = cfg[key]
    if isinstance(path, str) and path:
        return path
    raise ConfigError(f"config key {key!r}: expected a non-empty path "
                      f"string, got {path!r}")


def _typed(kind, value, key: str, minimum=-math.inf):
    """``kind(value)`` if it is finite and at least ``minimum`` (so never
    NaN), else a ConfigError naming the config key. A JSON boolean or
    string is no number, and an int key takes no fractional value."""
    try:
        out = kind(value)
        exact = not isinstance(value, float) or out == value
        if not isinstance(value, (bool, str)) and exact and out >= minimum \
                and abs(out) < math.inf:
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    bound = f" >= {minimum}" if minimum > -math.inf else ""
    raise ConfigError(f"config key {key!r}: expected finite {kind.__name__}"
                      f"{bound}, got {value!r}")


def _model_from_config(cfg: dict):
    name = cfg.get("model")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"config key 'params': expected an object, "
                          f"got {params!r}")
    times = cfg.get("times")
    if not isinstance(times, list) or len(times) < 2:
        raise ConfigError("config needs a 'times' list with at least 2 entries")
    times = tuple(_typed(float, t, "times") for t in times)
    if name == "b1":
        model = models.model_b1(
            gamma=_typed(float, params.get("gamma", 1.0), "gamma"),
            g=_typed(float, params.get("g", 1.0), "g"),
            dephasing_axis=params.get("dephasing_axis", "z"),
            rho0=_parse_state(params["rho0"], "rho0") if "rho0" in params else None,
        )
    elif name == "b2":
        model = models.model_b2(
            omega=_typed(float, params.get("omega", 1.0), "omega"),
            rho_s=_parse_state(params["rho_s"], "rho_s")
            if "rho_s" in params else None,
        )
    elif name == "b3":
        model = models.model_b3(
            rho_s=_parse_state(params.get("rho_s", "plus"), "rho_s"),
            rho_e=_parse_state(params.get("rho_e", "zero"), "rho_e"),
        )
    elif name == "markov":
        n_steps = len(times) - 1
        seed = _typed(int, cfg.get("seed", 0), "seed", 0)
        rank = _typed(int, params.get("kraus_rank", 2), "kraus_rank", 1)
        check_matrix_size(2 * rank ** n_steps, "joint unitary of the dilation")
        maps = random_control_sequence(
            2, n_steps, np.random.default_rng(seed), kraus_rank=rank)
        rho0 = _parse_state(params.get("rho0", "mixed"), "rho0")
        model = models.model_markov(maps, rho0)
    elif name == "custom":
        try:
            unitaries = ptf.load_matrices(_path(params, "unitaries_file"))
            joint = ptf.load_matrices(_path(params, "initial_joint_file"))[0]
        except KeyError as exc:
            raise ConfigError(f"custom model config missing {exc}")
        d = _typed(int, params.get("system_dim", 2), "system_dim", 2)
        env_dim = joint.shape[0] // d
        model = models.SEModel(
            system_dim=d, env_dim=env_dim, initial_joint=joint,
            step_unitaries=tuple(unitaries))
    else:
        raise ConfigError(f"unknown model {name!r}")
    # the params keys each model reads, as README's table lists them; any
    # other key is refused once the model's own keys have parsed
    takes = {
        "b1": ("gamma", "g", "dephasing_axis", "rho0"),
        "b2": ("omega", "rho_s"),
        "b3": ("rho_s", "rho_e"),
        "markov": ("kraus_rank", "rho0"),
        "custom": ("system_dim", "unitaries_file", "initial_joint_file"),
    }[name]
    for key in params:
        if key not in takes:
            raise ConfigError(f"config key {key!r}: not a parameter of model "
                              f"{name!r}, which takes {', '.join(takes)}")
    return model, times


def _sha256_obj(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    model, times = _model_from_config(cfg)
    if not (args.output or "output" in cfg):
        raise ConfigError("no output path: pass -o or set 'output' in the config")
    out_path = args.output or _path(cfg, "output")
    pt = models.build_process_tensor(model, times)
    pt.save(out_path)
    print(f"wrote {out_path}")
    print(f"shape: {pt.dim} x {pt.dim}  "
          f"(legs {' '.join(leg_labels(pt.n_steps))})")
    print(f"trace: {pt.trace:.12g}")
    return 0


# The analyses of ptr-report-v1, in report order; each has its own flag of
# `ptr analyze`, and a call that names none runs them all.
ANALYSES = ("markov", "divisibility", "measure", "bonddim", "classical")


def _write_csv(path, header: str, rows) -> None:
    """One line per row: its series name, then each value as a float."""
    lines = [header, *(",".join([series, *(repr(float(v)) for v in values)])
                       for series, *values in rows)]
    ptf._write(path, ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"wrote {path}")


def cmd_analyze(args) -> int:
    t_start = time.perf_counter()
    tol, bond_cutoff = args.tol, args.bond_cutoff
    if not 0 <= tol < math.inf:
        raise ConfigError(f"--tol must be finite and >= 0, got {tol!r}")
    if not 0 <= bond_cutoff < 1:
        raise ConfigError(f"--bond-cutoff must lie in [0, 1), "
                          f"got {bond_cutoff!r}")
    digest = hashlib.sha256()
    pt = ptf.load(args.file, digest)
    d = pt.system_dim
    basis = ic_basis(d)
    analyses = [n for n in ANALYSES if getattr(args, n)] or list(ANALYSES)
    report: dict = {
        "format": "ptr-report-v1",
        "input": {
            "path": str(args.file),
            "sha256": digest.hexdigest(),
            "system_dim": d,
            "k": pt.n_steps,
            "times": list(pt.times),
            "trace": pt.trace,
            "min_eigenvalue": pt.min_eigenvalue,
        },
        "analyses": {},
        "tolerances": {"tol": tol, "bond_cutoff": bond_cutoff},
    }
    csv_rows: list[tuple[str, float, float]] = []
    if "markov" in analyses:
        rep = markov_test(pt, tol=tol, exhaustive=args.exhaustive)
        report["analyses"]["markov"] = asdict(rep)
    if "divisibility" in analyses:
        rep = divisibility_test(pt, tol=tol)
        # identity fills the slots outside each tested pair or triple
        report["analyses"]["divisibility"] = {
            **asdict(rep), "is_divisible": rep.is_divisible,
            "filler": "identity"}
    measure = None
    if "measure" in analyses:
        measure = non_markovianity(pt, bond_cutoff=bond_cutoff)
        # one measure, computed exactly
        report["analyses"]["measure"] = {
            **asdict(measure), "metric": "relative_entropy",
            "is_upper_bound": False}
        csv_rows.extend(
            ("confusion", float(n), confusion_probability(measure.n_value, n))
            for n in range(21))
    if "bonddim" in analyses:
        dims = list(measure.bond_dims) if measure is not None \
            else bond_dimension(pt, cutoff=bond_cutoff)
        report["analyses"]["bonddim"] = {"bond_dims": dims,
                                         "cutoff": bond_cutoff}
        csv_rows.extend(("bonddim", float(i), float(v))
                        for i, v in enumerate(dims))
    if "classical" in analyses:
        instrument = computational_reprepare_instrument(d)
        final = [np.diag(row) for row in np.eye(d, dtype=complex)]
        cp = classical_process(pt, [instrument] * pt.n_steps, final_povm=final)
        check = classical_markov_check(cp, tol=tol)
        report["analyses"]["classical"] = {
            "instrument": "computational measure-and-reprepare",
            "final_povm": "computational",
            **check._asdict(),
            "table": {"shape": cp.table.shape,
                      "outcome_labels": cp.outcome_labels,
                      "probabilities": cp.table.reshape(-1).tolist()},
        }
    report["provenance"] = {
        # ptr-report-v1 hashes the measure name, fixed as there is one measure
        "config_sha256": _sha256_obj({
            "analyses": analyses, "tol": tol, "bond_cutoff": bond_cutoff,
            "metric": "relative_entropy",
            "exhaustive": bool(args.exhaustive)}),
        "basis_id": basis.label,
        "wall_time_s": round(time.perf_counter() - t_start, 6),
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.output:
        ptf._write(args.output, (text + "\n").encode("utf-8"))
        print(f"wrote {args.output}")
    else:
        print(text)
    if args.csv:
        _write_csv(args.csv, "series,x,y", csv_rows)
    return 0


def _print_check(name: str, value: float, expected: float, tol: float) -> bool:
    ok = abs(value - expected) <= tol
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {value:.9g} (expected {expected:.9g} "
          f"+/- {tol:g})")
    return ok


def _examples_b1(args, csv_rows) -> bool:
    gamma_g = args.gamma_g
    dt = args.dt
    model = models.model_b1(gamma=gamma_g, g=1.0)
    plus = NAMED_STATES["plus"]
    ident = QuantumMap.identity(2)
    flip = QuantumMap.from_unitary(np.array([[0, 1], [1, 0]], dtype=complex))

    sys1, _ = models.simulate_sequence(model, (0.0, dt), [ident])
    coherence = abs(sys1.matrix[0, 1]) / abs(plus[0, 1])
    ok = _print_check(f"b1 coherence ratio at gamma*g*t = {gamma_g * dt:g}",
                      coherence, math.exp(-gamma_g * dt), 1e-6)

    sys2, _ = models.simulate_sequence(model, (0.0, dt, 2 * dt), [ident, flip])
    revival = abs(sys2.matrix[0, 1]) / abs(plus[0, 1])
    ok &= _print_check("b1 echo revival ratio", revival, 1.0, 1e-6)
    fid = fidelity(sys2.matrix, plus)
    ok &= _print_check("b1 echo state fidelity", fid, 1.0, 1e-6)

    if csv_rows is not None:
        for step in range(0, 41):
            t = 2 * dt * step / 40
            if t == 0.0:
                coh, marker = 1.0, 0.0
            elif t <= dt:
                s, _ = models.simulate_sequence(model, (0.0, t), [ident])
                coh, marker = abs(s.matrix[0, 1]) * 2, 0.0
            else:
                s, _ = models.simulate_sequence(model, (0.0, dt, t),
                                                [ident, flip])
                coh, marker = abs(s.matrix[0, 1]) * 2, 1.0
            csv_rows.append(("b1_echo", t, coh, marker))
    return ok


def _examples_b2(args, csv_rows) -> bool:
    theta = args.omega_dt
    model = models.model_b2(omega=1.0)
    grid = (0.0, theta, 2 * theta)
    rho_m, rho_n = NAMED_STATES["zero"], NAMED_STATES["one"]
    out_m, _ = models.simulate_sequence(model, grid[:2],
                                        [QuantumMap.prepare(rho_m)])
    out_n, _ = models.simulate_sequence(model, grid[:2],
                                        [QuantumMap.prepare(rho_n)])
    contraction = trace_norm_distance(out_m.matrix, out_n.matrix) \
        / trace_norm_distance(rho_m, rho_n)
    ok = _print_check(f"b2 trace-distance contraction at omega*dt = {theta:g}",
                      contraction, math.cos(theta) ** 2, 1e-9)

    pt = models.build_process_tensor(model, grid)
    brk = default_break(2)
    deviation = 0.0
    closed_err = 0.0
    conds = []
    for rho in (rho_m, rho_n):
        for r in range(brk.n_outcomes):
            cond = pt.conditional_state(
                1, prep_index=2, povm_outcome=r,
                past=[QuantumMap.prepare(rho)])
            expect = models.b2_conditional_output(
                brk.preparations[2], rho, brk.effects[r], theta, theta)
            closed_err = max(closed_err,
                             float(np.abs(cond.state.matrix - expect).max()))
            conds.append(cond.state.matrix)
    for i in range(len(conds)):
        for j in range(i + 1, len(conds)):
            deviation = max(deviation,
                            trace_norm_distance(conds[i], conds[j]))
    ok &= closed_err <= 1e-9
    print(f"[{'PASS' if closed_err <= 1e-9 else 'FAIL'}] b2 conditional states "
          f"match the closed form (max error {closed_err:.3e})")
    ok &= deviation > 0.05
    print(f"[{'PASS' if deviation > 0.05 else 'FAIL'}] b2 causal-break memory "
          f"witness: conditional-state spread {deviation:.6f} > 0.05")
    if csv_rows is not None:
        for r, state in enumerate(conds):
            csv_rows.append(("b2_conditional_bloch_x", float(r),
                             float((state[0, 1] + state[1, 0]).real), 0.0))
    return ok


def _examples_b3(args, csv_rows) -> bool:
    rho_s = _parse_state(args.rho_s, "rho_s")
    rho_e = _parse_state(args.rho_e, "rho_e")
    model = models.model_b3(rho_s, rho_e)
    grid = (0.0, 1.0, 2.0)
    rng = np.random.default_rng(20)
    worst = 0.0
    ident = QuantumMap.identity(2)
    for _ in range(20):
        op = random_control_sequence(2, 1, rng)[0]
        out, joint = models.simulate_sequence(model, grid, [ident, op])
        worst = max(worst, trace_norm_distance(out.matrix, rho_s))
    fid_ok = worst <= 1e-10
    print(f"[{'PASS' if fid_ok else 'FAIL'}] b3 output equals the initial "
          f"system state for 20 random intermediate channels "
          f"(max distance {worst:.3e})")
    pt = models.build_process_tensor(model, grid)
    rep = markov_test(pt)
    print(f"[{'PASS' if not rep.is_markov else 'FAIL'}] b3 flagged "
          f"non-Markovian (deviation {rep.max_deviation:.6f})")
    dims = bond_dimension(pt)
    print(f"[{'PASS' if dims[1] > 1 else 'FAIL'}] b3 bond dimension across "
          f"the middle cut: {dims[1]} > 1 (cuts: {dims})")
    if csv_rows is not None:
        for i, v in enumerate(dims):
            csv_rows.append(("b3_bonddim", float(i), float(v), 0.0))
    return fid_ok and not rep.is_markov and dims[1] > 1


def cmd_examples(args) -> int:
    csv_rows = [] if args.csv else None
    run = {"b1": _examples_b1, "b2": _examples_b2, "b3": _examples_b3}
    ok = run[args.name](args, csv_rows)
    if args.csv:
        _write_csv(args.csv, "series,x,y,marker", csv_rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptr",
        description="Process-tensor construction and operational "
                    "(non-)Markovianity analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="build a process tensor from a "
                                            "model config and write PTF1")
    p_sim.add_argument("config")
    p_sim.add_argument("-o", "--output", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="run analyses on a PTF1 file")
    p_an.add_argument("file")
    for name in ANALYSES:
        p_an.add_argument(f"--{name}", action="store_true")
    p_an.add_argument("--tol", type=float, default=MARKOV_TOL)
    p_an.add_argument("--bond-cutoff", type=float, default=BOND_CUTOFF)
    p_an.add_argument("--exhaustive", action="store_true")
    p_an.add_argument("-o", "--output", default=None)
    p_an.add_argument("--csv", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_ex = sub.add_parser("examples", help="reproduce a built-in "
                                           "demonstration with pass/fail checks")
    p_ex.add_argument("name", choices=["b1", "b2", "b3"])
    p_ex.add_argument("--gamma-g", type=float, default=1.0,
                      help="b1: product gamma*g (default 1)")
    p_ex.add_argument("--dt", type=float, default=1.0,
                      help="b1: step length (default 1)")
    p_ex.add_argument("--omega-dt", type=float, default=math.pi / 4,
                      help="b2: swap angle per step (default pi/4)")
    p_ex.add_argument("--rho-s", default="plus", help="b3: initial system state")
    p_ex.add_argument("--rho-e", default="zero", help="b3: environment state")
    p_ex.add_argument("--csv", default=None)
    p_ex.set_defaults(func=cmd_examples)
    return parser


# Built on the first call and reused: building it costs far more than a parse.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
