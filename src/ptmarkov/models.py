"""System-environment dilations and the built-in example models.

Every process tensor in this package is sourced here: a model is either a
finite quantum environment with per-interval joint unitaries, or a
classical-noise ensemble (a random field conditioning a family of system
unitaries). The three appendix-style demonstration models are

* ``model_b1``  -- pure dephasing by a Cauchy-distributed random field,
  CP-divisible yet echo-reversible;
* ``model_b2``  -- a qubit environment under partial-swap interactions,
  trace-distance contractive yet memory-carrying across causal breaks;
* ``model_b3``  -- two full swaps, a memory channel with no system-
  environment correlations at any time;

plus ``model_markov``, which Stinespring-dilates arbitrary channels with a
fresh environment per interval and is memoryless by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .defaults import (
    B1_NODES,
    CPTP_DEFECT_TOL,
    SUPPORT_CUTOFF,
    UNITARY_ATOL,
)
from .errors import DimensionMismatch, QuadratureError, ValidationError
from .linalg import Array, as_operator, permute_legs, tensor_product
from .process_tensor import (
    ControlSequence,
    ProcessTensor,
    check_tensor_size,
    checked_times,
)
from .qops import DensityMatrix, QuantumMap

__all__ = [
    "ExperimentGrid",
    "SEModel",
    "simulate_sequence",
    "build_process_tensor",
    "model_b1",
    "model_b2",
    "model_b3",
    "model_markov",
    "swap_unitary",
]

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True)
class ExperimentGrid:
    """Strictly increasing time tags t_0 ... t_K (arbitrary units)."""

    times: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", checked_times(self.times))

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.times, self.times[1:]))


def _as_grid(grid) -> ExperimentGrid:
    if isinstance(grid, ExperimentGrid):
        return grid
    return ExperimentGrid(tuple(grid))


@dataclass(frozen=True)
class SEModel:
    """A system-environment dilation.

    Exactly one environment branch is populated:

    * quantum: ``env_dim``, ``initial_joint`` and either explicit
      ``step_unitaries`` (one per grid interval) or a ``unitary_rule``
      mapping an interval (t_a, t_b) to a joint unitary;
    * classical: ``initial_system`` plus ``noise_rule`` (grid times ->
      nodes and weights of the random field) and ``conditional_unitary``
      (field values and an interval -> the conditional system unitaries).
    """

    system_dim: int
    env_dim: int | None = None
    initial_joint: Array | None = None
    step_unitaries: tuple[Array, ...] | None = None
    unitary_rule: Callable[[float, float], Array] | None = None
    initial_system: Array | None = None
    noise_rule: Callable[[tuple[float, ...]], tuple[Array, Array]] | None = None
    conditional_unitary: Callable[[Array, float, float], Array] | None = None
    label: str = ""

    def __post_init__(self):
        d = self.system_dim
        if self.env_dim is not None:
            if self.initial_joint is None:
                raise ValidationError("quantum-environment model needs initial_joint")
            joint = as_operator(self.initial_joint)
            if joint.shape[0] != d * self.env_dim:
                raise DimensionMismatch(
                    f"joint state dim {joint.shape[0]} != {d * self.env_dim}")
            DensityMatrix(joint)  # validates
            if self.step_unitaries is not None:
                for u in self.step_unitaries:
                    _check_unitary(u, d * self.env_dim)
            elif self.unitary_rule is None:
                raise ValidationError("need step_unitaries or unitary_rule")
        else:
            if self.noise_rule is None or self.conditional_unitary is None \
                    or self.initial_system is None:
                raise ValidationError(
                    "classical-noise model needs initial_system, noise_rule "
                    "and conditional_unitary")
            DensityMatrix(as_operator(self.initial_system))

    @property
    def kind(self) -> str:
        return "quantum" if self.env_dim is not None else "classical"


def _check_unitary(u: Array, dim: int, atol: float = UNITARY_ATOL) -> None:
    u = as_operator(u)
    if u.shape[0] != dim:
        raise DimensionMismatch(f"unitary dim {u.shape[0]} != {dim}")
    defect = np.abs(u @ u.conj().T - np.eye(dim)).max()
    if defect > atol:
        raise ValidationError(f"matrix is not unitary (defect {defect:.3e})")


# ---------------------------------------------------------------------------
# step engines
# ---------------------------------------------------------------------------

class _QuantumEngine:
    def __init__(self, model: SEModel, grid: ExperimentGrid):
        self.d = model.system_dim
        self.e = model.env_dim
        if model.step_unitaries is not None:
            if len(model.step_unitaries) < grid.n_steps:
                raise DimensionMismatch(
                    f"model supplies {len(model.step_unitaries)} step "
                    f"unitaries, grid has {grid.n_steps} steps")
            self.unitaries = [np.asarray(u, dtype=complex)
                              for u in model.step_unitaries[:grid.n_steps]]
        else:
            self.unitaries = []
            for t0, t1 in grid.intervals:
                u = as_operator(model.unitary_rule(t0, t1))
                _check_unitary(u, self.d * self.e)
                self.unitaries.append(u)
        self.joint0 = as_operator(model.initial_joint)

    def run(self, slot_superops: Sequence[Array]):
        d, e = self.d, self.e
        joint = self.joint0
        for sup, u in zip(slot_superops, self.unitaries):
            t = joint.reshape(d, e, d, e)
            s4 = sup.reshape(d, d, d, d)
            joint = np.einsum("klxy,xayb->kalb", s4, t).reshape(d * e, d * e)
            joint = u @ joint @ u.conj().T
        sys = np.trace(joint.reshape(d, e, d, e), axis1=1, axis2=3)
        return sys, joint

    def comb(self) -> Array:
        return _link_product(self.joint0, self.unitaries, np.ones(1),
                             self.d, self.e)


class _ClassicalEngine:
    def __init__(self, model: SEModel, grid: ExperimentGrid):
        self.d = model.system_dim
        nodes, weights = model.noise_rule(grid.times)
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if weights.min() < 0 or abs(weights.sum() - 1.0) > 1e-8:
            raise ValidationError("noise weights must be nonnegative and sum to 1")
        self.weights = weights
        self.unitaries = []
        for t0, t1 in grid.intervals:
            us = np.asarray(model.conditional_unitary(nodes, t0, t1),
                            dtype=complex)
            self.unitaries.append(us)
        sys0 = as_operator(model.initial_system)
        self.states0 = np.broadcast_to(
            sys0, (nodes.size,) + sys0.shape).copy()

    def run(self, slot_superops: Sequence[Array]):
        d = self.d
        states = self.states0
        for sup, us in zip(slot_superops, self.unitaries):
            s4 = sup.reshape(d, d, d, d)
            states = np.einsum("klxy,nxy->nkl", s4, states)
            states = np.einsum("nab,nbc,ndc->nad", us, states, us.conj())
        sys = np.einsum("n,nab->ab", self.weights, states)
        return sys, None

    def comb(self) -> Array:
        return _link_product(self.states0[0], self.unitaries, self.weights,
                             self.d, 1)


def _link_product(rho0: Array, unitaries: Sequence[Array], weights: Array,
                  d: int, e: int) -> Array:
    """Choi matrix Upsilon = M M^dagger of a dilation, Hermitian up to
    rounding; ProcessTensor symmetrizes it on construction.

    ``rho0`` is purified on its support (eigenvalues above
    SUPPORT_CUTOFF). ``unitaries`` hold one joint (d*e)-square unitary per step, or a stack
    of them over the ensemble axis n. M carries axes (n, system, env, past
    legs, purification); the past legs are kept newest first, so that after
    the last step they are already in the stored order
    [O_{K-1}, I_{K-1}, ..., O_0, I_0] behind the final output O_K.
    """
    w, v = np.linalg.eigh(rho0)
    keep = w > SUPPORT_CUTOFF
    psi = v[:, keep] * np.sqrt(w[keep])
    r = psi.shape[1]
    m = psi.reshape(1, d, e, 1, r)
    for u in unitaries:
        # M'[n, s', e', O_j, I_j, P, r] = sum_e U[n, (s', e'), (O_j, e)]
        #                                    M[n, I_j, e, P, r]
        u = u.reshape(-1, d * e * d, e)
        n_past = m.shape[3]
        rows = m.transpose(0, 2, 1, 3, 4).reshape(m.shape[0], e, -1)
        m = (u @ rows).reshape(-1, d, e, d * d * n_past, r)
    n, _, _, n_past, _ = m.shape
    m = m * np.sqrt(weights).reshape(n, 1, 1, 1, 1)
    cols = m.transpose(1, 3, 0, 2, 4).reshape(d * n_past, n * e * r)
    return cols @ cols.conj().T


def _make_engine(model: SEModel, grid: ExperimentGrid):
    if model.kind == "quantum":
        return _QuantumEngine(model, grid)
    return _ClassicalEngine(model, grid)


def simulate_sequence(model: SEModel, grid, controls):
    """Run one control sequence through the dilation.

    Returns ``(system_state, joint_state)``; the joint state is ``None``
    for classical-noise models, whose environment is a random field rather
    than a Hilbert space. Outputs are subnormalized when controls are
    trace decreasing.
    """
    grid = _as_grid(grid)
    if not isinstance(controls, ControlSequence):
        controls = ControlSequence(controls, system_dim=model.system_dim)
    if len(controls) != grid.n_steps:
        raise DimensionMismatch(
            f"{len(controls)} controls for {grid.n_steps} grid steps")
    engine = _make_engine(model, grid)
    sups = [m.superoperator for m in controls.maps]
    sys, joint = engine.run(sups)
    return DensityMatrix(sys), None if joint is None else DensityMatrix(joint)


def build_process_tensor(model: SEModel, grid) -> ProcessTensor:
    """Process tensor of a dilation, written down directly as the link
    product of the initial joint state and the step unitaries.

    The tensor is the Choi state of the multi-time dilation: with the
    initial joint state purified into columns psi, each slot turns the
    current system index into its input leg I_j, injects a fresh output
    leg O_j as the new system index, and the step unitary acts on system
    and environment. Tracing the environment and the purification leaves
    Upsilon = M M^dagger, PSD by construction. Classical-noise models stack
    the columns sqrt(w_n) M_n of every ensemble node. Raises
    ``SweepGuardError`` above the size guard (see ``check_tensor_size``).
    """
    grid = _as_grid(grid)
    k = grid.n_steps
    if k < 1:
        raise ValidationError("process tensors need at least one step")
    d = model.system_dim
    check_tensor_size(d, k)
    return ProcessTensor(_make_engine(model, grid).comb(), d, grid.times)


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

def _wrapped_cauchy_nodes(times: tuple[float, ...], *, gamma: float, g: float,
                          n_nodes: int) -> tuple[Array, Array]:
    """Field nodes and weights reproducing Cauchy dephasing on a grid.

    Interval phases only enter as exp(-i g x dt) with the dt's commensurate
    multiples of a base h, so g*x reduces to an angle on the circle whose
    distribution is wrapped Cauchy with rho = exp(-gamma*|g|*h). A uniform
    trapezoid rule on the circle then reproduces every needed moment
    exp(-gamma*|g|*m*h) with error O(rho**n), i.e. far below double
    precision at the default node count.
    """
    dts = np.diff(np.asarray(times, dtype=float))
    if dts.size == 0:
        raise QuadratureError("grid has no intervals")
    base = dts.min()
    denom = 1
    for r in dts / base:
        denom = math.lcm(denom, Fraction(float(r)).limit_denominator(4096).denominator)
    h = base / denom
    mults = np.rint(dts / h).astype(int)
    if np.abs(dts - mults * h).max() > 1e-9 * base:
        raise QuadratureError(
            f"grid intervals {dts.tolist()} are not commensurate; the "
            f"dephasing ensemble requires rationally related step lengths")
    decay = gamma * abs(g) * h
    n_eff = max(int(n_nodes), int(mults.sum()) + math.ceil(37.0 / decay) + 1)
    if n_eff > 500_000:
        raise QuadratureError(
            f"grid requires {n_eff} ensemble nodes; coarsen the time grid")
    psi = (np.arange(n_eff) + 0.5) * (2 * np.pi / n_eff) - np.pi
    rho = np.exp(-decay)
    w = (1 - rho * rho) / (1 + rho * rho - 2 * rho * np.cos(psi)) / n_eff
    w = w / w.sum()
    return psi / (g * h), w


def _b1_conditional_unitary(x: Array, t0: float, t1: float, *, g: float,
                            axis: str) -> Array:
    phi = g * np.asarray(x, dtype=float) * (t1 - t0)
    sig = PAULI[axis]
    c = np.cos(phi / 2)[:, None, None]
    s = np.sin(phi / 2)[:, None, None]
    return c * np.eye(2, dtype=complex) - 1j * s * sig


def model_b1(gamma: float, g: float, dephasing_axis: str = "z",
             rho0: Array | None = None, nodes: int = B1_NODES) -> SEModel:
    """Random-field dephasing with a Lorentzian (Cauchy) field density.

    The field x has density (gamma/pi)/(x**2 + gamma**2) and conditions the
    system unitary exp(-i g x sigma_axis t / 2); off-diagonal elements in
    the sigma_axis eigenbasis decay as exp(-gamma*|g|*t), and a flip about
    an orthogonal axis at t rewinds the decay by exactly t per realization.
    """
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    if g == 0:
        raise ValidationError("coupling g must be nonzero")
    if dephasing_axis not in PAULI:
        raise ValidationError(f"dephasing_axis must be one of {set(PAULI)}")
    if rho0 is None:
        rho0 = np.outer(KET_PLUS, KET_PLUS.conj())
    return SEModel(
        system_dim=2,
        initial_system=as_operator(rho0),
        noise_rule=partial(_wrapped_cauchy_nodes, gamma=float(gamma),
                           g=float(g), n_nodes=int(nodes)),
        conditional_unitary=partial(_b1_conditional_unitary, g=float(g),
                                    axis=dephasing_axis),
        label="b1",
    )


def swap_unitary(d: int) -> Array:
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def _partial_swap_unitary(t0: float, t1: float, *, omega: float) -> Array:
    theta = omega * (t1 - t0)
    return np.cos(theta) * np.eye(4, dtype=complex) \
        + 1j * np.sin(theta) * swap_unitary(2)


def model_b2(omega: float, rho_s: Array | None = None) -> SEModel:
    """Partial-swap coupling to a maximally mixed qubit environment."""
    if omega <= 0:
        raise ValidationError("omega must be positive")
    if rho_s is None:
        rho_s = np.eye(2) / 2
    return SEModel(
        system_dim=2,
        env_dim=2,
        initial_joint=tensor_product(as_operator(rho_s), np.eye(2) / 2),
        unitary_rule=partial(_partial_swap_unitary, omega=float(omega)),
        label="b2",
    )


def model_b3(rho_s: Array, rho_e: Array) -> SEModel:
    """Two full swaps: the system output at the final time is always the
    initial system state, with the joint state a product throughout."""
    rho_s = as_operator(rho_s)
    rho_e = as_operator(rho_e)
    if rho_s.shape != rho_e.shape:
        raise DimensionMismatch("system and environment dims must match")
    d = rho_s.shape[0]
    s = swap_unitary(d)
    return SEModel(
        system_dim=d,
        env_dim=d,
        initial_joint=tensor_product(rho_s, rho_e),
        step_unitaries=(s, s),
        label="b3",
    )


def b2_env_after_break(rho_n: Array, effect: Array, theta: float) -> Array:
    """Closed-form environment state of the partial-swap model after a
    causal break.

    The system starts in ``rho_n`` against a maximally mixed environment,
    evolves under the partial swap with angle ``theta``, and the system is
    measured with POVM element ``effect``. The (normalized) environment
    state conditioned on that outcome is

        [c^2 tr(E rho) 1 + s^2 tr(E) rho + i c s [rho, E]]
            / [2 c^2 tr(E rho) + s^2 tr(E)],

    with c = cos(theta), s = sin(theta); it retains the initial-state and
    outcome dependence that the later dynamics inherits.
    """
    rho_n = as_operator(rho_n)
    effect = as_operator(effect)
    c, s = np.cos(theta), np.sin(theta)
    d = rho_n.shape[0]
    comm = rho_n @ effect - effect @ rho_n
    num = (c * c * np.trace(effect @ rho_n) * np.eye(d)
           + s * s * np.trace(effect) * rho_n + 1j * c * s * comm)
    return num / np.trace(num)


def b2_conditional_output(prep: Array, rho_n: Array, effect: Array,
                          theta12: float, theta23: float) -> Array:
    """Closed-form system state one partial-swap step after a causal break:
    cos^2 P + sin^2 rho_E + i cos sin [rho_E, P] with the conditional
    environment state from :func:`b2_env_after_break`."""
    prep = as_operator(prep)
    env = b2_env_after_break(rho_n, effect, theta12)
    c, s = np.cos(theta23), np.sin(theta23)
    return (c * c * prep + s * s * env
            + 1j * c * s * (env @ prep - prep @ env))


def _complete_isometry(v: Array) -> Array:
    """Extend an isometry V: C^d -> C^(d*r) (columns land on env state |0>)
    to a unitary; the completion is the deterministic SVD complement."""
    n, d = v.shape
    r = n // d
    u_svd = np.linalg.svd(v, full_matrices=True)[0]
    comp = u_svd[:, d:]
    u = np.zeros((n, n), dtype=complex)
    cols = [b * r for b in range(d)]
    u[:, cols] = v
    rest = [c for c in range(n) if c not in cols]
    u[:, rest] = comp
    return u


def _embed_pair(u: Array, dims: Sequence[int], site: int) -> Array:
    """Embed a two-site operator on (site 0, ``site``) into the full chain."""
    dims = list(dims)
    other = [i for i in range(len(dims)) if i not in (0, site)]
    rest_dim = int(np.prod([dims[i] for i in other])) if other else 1
    big = np.kron(u, np.eye(rest_dim))
    order = [0, site] + other          # current leg order of ``big``
    perm = [order.index(i) for i in range(len(dims))]
    shape = [dims[i] for i in order]
    return permute_legs(big, shape, perm)


def model_markov(per_step_maps: Sequence[QuantumMap], rho0: Array) -> SEModel:
    """Dilate each channel with a fresh environment factor per interval.

    Step j acts as the Stinespring unitary of its channel on the system and
    the j-th environment factor (initialized to |0>), leaving the other
    factors untouched; the resulting process tensor factorizes exactly.
    """
    rho0 = as_operator(rho0)
    d = rho0.shape[0]
    kraus_sets = []
    for idx, qmap in enumerate(per_step_maps):
        if qmap.in_dim != d or qmap.out_dim != d:
            raise DimensionMismatch(f"map {idx} dims != system dim {d}")
        if qmap.cp_defect > CPTP_DEFECT_TOL or qmap.tp_defect > CPTP_DEFECT_TOL:
            raise ValidationError(f"map {idx} is not CPTP")
        kraus_sets.append(qmap.kraus)
    env_factors = [max(len(ks), 1) for ks in kraus_sets]
    dims = [d] + env_factors
    unitaries = []
    for j, ks in enumerate(kraus_sets):
        r = env_factors[j]
        v = np.zeros((d * r, d), dtype=complex)
        for e, kop in enumerate(ks):
            v[e::r, :] = kop
        unitaries.append(_embed_pair(_complete_isometry(v), dims, j + 1))
    env_dim = int(np.prod(env_factors))
    env0 = np.zeros((env_dim, env_dim), dtype=complex)
    env0[0, 0] = 1.0
    return SEModel(
        system_dim=d,
        env_dim=env_dim,
        initial_joint=tensor_product(rho0, env0),
        step_unitaries=tuple(unitaries),
        label="markov",
    )
