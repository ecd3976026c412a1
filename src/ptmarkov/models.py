"""System-environment dilations and the built-in example models.

Every process tensor in this package is sourced here. A model is a
weighted ensemble of dilations: an initial system-environment state and,
per grid interval, one joint unitary for each ensemble member. A finite
quantum environment is an ensemble of one with weight 1; a random field
is one member per field node on a trivial environment. Every interval's
unitaries are checked against UNITARY_ATOL, and the weights must be
nonnegative and sum to 1. The three appendix-style demonstration models are

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

from .defaults import CPTP_DEFECT_TOL, SUPPORT_CUTOFF, UNITARY_ATOL
from .errors import DimensionMismatch, QuadratureError, ValidationError
from .linalg import Array, as_operator, permute_legs, tensor_product
from .process_tensor import (
    ProcessTensor,
    check_matrix_size,
    checked_controls,
    checked_times,
)
from .qops import DensityMatrix, QuantumMap

__all__ = [
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
class SEModel:
    """A weighted ensemble of system-environment dilations.

    ``initial_joint`` is the state of the system (``system_dim``) and its
    environment (``env_dim``). Exactly one of the two dynamics is given:

    * ``step_unitaries``: one joint unitary per grid interval, a single
      dilation of weight 1;
    * ``ensemble``: maps the grid times to ``(weights, stacks)``, n weights
      and one (n, d*e, d*e) stack of joint unitaries per interval. A random
      field is an ensemble on a trivial environment (``env_dim`` 1).
    """

    system_dim: int
    env_dim: int
    initial_joint: Array
    step_unitaries: tuple[Array, ...] | None = None
    ensemble: Callable[[tuple[float, ...]],
                       tuple[Array, Sequence[Array]]] | None = None

    def __post_init__(self):
        dim = self.system_dim * self.env_dim
        joint = as_operator(self.initial_joint)
        if joint.shape[0] != dim:
            raise DimensionMismatch(f"joint state dim {joint.shape[0]} != {dim}")
        DensityMatrix(joint)  # validates
        if (self.step_unitaries is None) == (self.ensemble is None):
            raise ValidationError("need exactly one of step_unitaries or ensemble")
        for u in self.step_unitaries or ():
            _check_unitary(u, dim)


def _check_unitary(u, dim: int, count: int | None = None) -> Array:
    """``u`` as a complex array, checked to be one (dim x dim) unitary or,
    given ``count``, a stack of that many, each to within UNITARY_ATOL."""
    u = np.asarray(u, dtype=complex)
    shape = (dim, dim) if count is None else (count, dim, dim)
    if u.shape != shape:
        raise DimensionMismatch(f"unitary shape {u.shape} != {shape}")
    defect = np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(dim)).max()
    if not defect <= UNITARY_ATOL:
        raise ValidationError(f"matrix is not unitary (defect {defect:.3e})")
    return u


# ---------------------------------------------------------------------------
# the dilation
# ---------------------------------------------------------------------------

def _dilation(model: SEModel, times: tuple[float, ...]):
    """Lay a model out on the grid ``times`` as ``(weights, unitaries)``:
    n ensemble weights and one checked (n, d*e, d*e) stack of joint
    unitaries per interval. Explicit step unitaries are an ensemble of one
    with weight 1.
    """
    k, dim = len(times) - 1, model.system_dim * model.env_dim
    if model.ensemble is None:
        weights = np.ones(1)
        steps = [np.reshape(u, (1, dim, dim)) for u in model.step_unitaries]
    else:
        weights, steps = model.ensemble(times)
        weights = np.asarray(weights, dtype=float)
        # the bounds pass in their own direction, so a NaN weight fails them
        if not (weights.ndim == 1 and np.all(weights >= 0)
                and abs(weights.sum() - 1.0) <= 1e-8):
            raise ValidationError("ensemble weights must be a nonnegative "
                                  "vector that sums to 1")
    if len(steps) < k:
        raise DimensionMismatch(
            f"model supplies {len(steps)} step unitaries, grid has {k} steps")
    return weights, [_check_unitary(u, dim, weights.size) for u in steps[:k]]


def _link_product(psi: Array, unitaries: Sequence[Array], weights: Array,
                  d: int, e: int) -> Array:
    """Choi matrix Upsilon = M M^dagger of a dilation, Hermitian up to
    rounding; ProcessTensor symmetrizes it on construction.

    ``psi`` purifies the initial joint state, psi psi^dagger = rho0.
    ``unitaries`` hold one joint (d*e)-square unitary per step, or a stack
    of them over the ensemble axis n. M carries axes (n, system, env, past
    legs, purification); the past legs are kept newest first, so that after
    the last step they are already in the stored order
    [O_{K-1}, I_{K-1}, ..., O_0, I_0] behind the final output O_K.
    """
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


def simulate_sequence(model: SEModel, times, controls):
    """Run one control sequence, one QuantumMap per step, through the
    model's ensemble of dilations on the time tags ``times``.

    Returns ``(system_state, joint_state)``: the joint state is the
    weighted ensemble average sum_n w_n joint_n, and the system state its
    partial trace over the environment. On a trivial environment, such as
    a random field's, the two coincide. Outputs are subnormalized when
    controls are trace decreasing.
    """
    times = checked_times(times)
    maps = checked_controls(controls, len(times) - 1, model.system_dim)
    weights, unitaries = _dilation(model, times)
    d, e, n = model.system_dim, model.env_dim, weights.size
    joint0 = as_operator(model.initial_joint)
    joint = np.broadcast_to(joint0, (n,) + joint0.shape)
    for qmap, u in zip(maps, unitaries):
        s4 = qmap.superoperator.reshape(d, d, d, d)
        joint = np.einsum("klxy,nxayb->nkalb", s4, joint.reshape(n, d, e, d, e))
        joint = u @ joint.reshape(n, d * e, d * e) @ u.conj().swapaxes(-1, -2)
    joint = np.einsum("n,nab->ab", weights, joint)
    sys = np.trace(joint.reshape(d, e, d, e), axis1=1, axis2=3)
    return DensityMatrix(sys), DensityMatrix(joint)


def build_process_tensor(model: SEModel, times) -> ProcessTensor:
    """Process tensor of a model on the time tags ``times``, written down
    directly as the link product of the initial joint state and the step
    unitaries.

    The tensor is the Choi state of the multi-time dilation: with the
    initial joint state purified into columns psi, each slot turns the
    current system index into its input leg I_j, injects a fresh output
    leg O_j as the new system index, and the step unitary acts on system
    and environment. Tracing the environment and the purification leaves
    Upsilon = M M^dagger, PSD by construction; an ensemble stacks the
    columns sqrt(w_n) M_n of its members. Raises ``SweepGuardError``,
    before the sweep, when the tensor or M (n members times environment
    dimension times purification rank columns) exceeds the size guard.
    """
    times = checked_times(times)
    k = len(times) - 1
    if k < 1:
        raise ValidationError("process tensors need at least one step")
    d, e = model.system_dim, model.env_dim
    side = d ** (2 * k + 1)
    check_matrix_size(side, f"{k}-step tensor of dimension {d}")
    weights, unitaries = _dilation(model, times)
    w, v = np.linalg.eigh(as_operator(model.initial_joint))
    keep = w > SUPPORT_CUTOFF
    psi = v[:, keep] * np.sqrt(w[keep])
    check_matrix_size(side, f"link-product columns of {weights.size} "
                      f"ensemble members", weights.size * e * psi.shape[1])
    return ProcessTensor(_link_product(psi, unitaries, weights, d, e),
                         d, times)


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

def _wrapped_cauchy_nodes(times: tuple[float, ...], *, gamma: float,
                          g: float) -> tuple[Array, Array]:
    """Field nodes and weights reproducing Cauchy dephasing on a grid.

    Interval phases only enter as exp(-i g x dt) with the dt's commensurate
    multiples of a base h, so g*x reduces to an angle on the circle whose
    distribution is wrapped Cauchy with rho = exp(-gamma*|g|*h). The grid
    needs the moments rho**m for m up to M, the sum of the interval
    multiples. A uniform n-node trapezoid rule on the circle aliases moment
    m with error O(rho**(n - m)), so n - M >= 37 / (gamma*|g|*h) keeps
    every error at or below e**-37 = 8.5e-17. Raises QuadratureError on an
    incommensurate grid or above 500 000 nodes, before laying any out.
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
    n = int(mults.sum()) + math.ceil(37.0 / decay) + 1
    if n > 500_000:
        raise QuadratureError(
            f"grid requires {n} ensemble nodes; coarsen the time grid")
    psi = (np.arange(n) + 0.5) * (2 * np.pi / n) - np.pi
    rho = np.exp(-decay)
    w = (1 - rho * rho) / (1 + rho * rho - 2 * rho * np.cos(psi)) / n
    w = w / w.sum()
    return psi / (g * h), w


def _b1_ensemble(times: tuple[float, ...], *, gamma: float, g: float,
                 axis: str) -> tuple[Array, list[Array]]:
    """Weights of the field nodes x and, per interval, the stack of
    conditional system unitaries exp(-i g x sigma_axis dt / 2)."""
    x, w = _wrapped_cauchy_nodes(times, gamma=gamma, g=g)
    sig = PAULI[axis]
    stacks = []
    for t0, t1 in zip(times, times[1:]):
        phi = g * x * (t1 - t0)
        c = np.cos(phi / 2)[:, None, None]
        s = np.sin(phi / 2)[:, None, None]
        stacks.append(c * np.eye(2, dtype=complex) - 1j * s * sig)
    return w, stacks


def model_b1(gamma: float, g: float, dephasing_axis: str = "z",
             rho0: Array | None = None) -> SEModel:
    """Random-field dephasing with a Lorentzian (Cauchy) field density.

    The field x has density (gamma/pi)/(x**2 + gamma**2) and conditions the
    system unitary exp(-i g x sigma_axis t / 2); off-diagonal elements in
    the sigma_axis eigenbasis decay as exp(-gamma*|g|*t), and a flip about
    an orthogonal axis at t rewinds the decay by exactly t per realization.
    """
    # each bound passes in its own direction, so a NaN fails it
    if not gamma > 0:
        raise ValidationError(f"gamma must be positive, got {gamma!r}")
    if not abs(g) > 0:
        raise ValidationError(f"coupling g must be nonzero, got {g!r}")
    # a tuple compares without hashing, so an unhashable axis is refused too
    if dephasing_axis not in tuple(PAULI):
        raise ValidationError(f"dephasing_axis must be one of "
                              f"{sorted(PAULI)}, got {dephasing_axis!r}")
    if rho0 is None:
        rho0 = np.outer(KET_PLUS, KET_PLUS.conj())
    return SEModel(
        system_dim=2,
        env_dim=1,
        initial_joint=as_operator(rho0),
        ensemble=partial(_b1_ensemble, gamma=float(gamma), g=float(g),
                         axis=dephasing_axis),
    )


def swap_unitary(d: int) -> Array:
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def _b2_ensemble(times: tuple[float, ...], *,
                 omega: float) -> tuple[Array, list[Array]]:
    """An ensemble of one: per interval, the partial swap by omega * dt."""
    thetas = [omega * (t1 - t0) for t0, t1 in zip(times, times[1:])]
    return np.ones(1), [(np.cos(th) * np.eye(4, dtype=complex)
                         + 1j * np.sin(th) * swap_unitary(2))[None]
                        for th in thetas]


def model_b2(omega: float, rho_s: Array | None = None) -> SEModel:
    """Partial-swap coupling to a maximally mixed qubit environment."""
    if not omega > 0:
        raise ValidationError(f"omega must be positive, got {omega!r}")
    if rho_s is None:
        rho_s = np.eye(2) / 2
    return SEModel(
        system_dim=2,
        env_dim=2,
        initial_joint=tensor_product(as_operator(rho_s), np.eye(2) / 2),
        ensemble=partial(_b2_ensemble, omega=float(omega)),
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
    Raises ``SweepGuardError``, before any unitary is built, when the joint
    unitary exceeds the size guard (see ``check_matrix_size``).
    """
    rho0 = as_operator(rho0)
    d = rho0.shape[0]
    kraus_sets = []
    for idx, qmap in enumerate(per_step_maps):
        if qmap.in_dim != d or qmap.out_dim != d:
            raise DimensionMismatch(f"map {idx} dims != system dim {d}")
        if not (qmap.cp_defect <= CPTP_DEFECT_TOL and
                qmap.tp_defect <= CPTP_DEFECT_TOL):
            raise ValidationError(f"map {idx} is not CPTP")
        kraus_sets.append(qmap.kraus)
    env_factors = [max(len(ks), 1) for ks in kraus_sets]
    env_dim = math.prod(env_factors)
    check_matrix_size(d * env_dim, "joint unitary of the dilation")
    dims = [d] + env_factors
    unitaries = []
    for j, ks in enumerate(kraus_sets):
        r = env_factors[j]
        v = np.zeros((d * r, d), dtype=complex)
        for e, kop in enumerate(ks):
            v[e::r, :] = kop
        unitaries.append(_embed_pair(_complete_isometry(v), dims, j + 1))
    env0 = np.zeros((env_dim, env_dim), dtype=complex)
    env0[0, 0] = 1.0
    return SEModel(
        system_dim=d,
        env_dim=env_dim,
        initial_joint=tensor_product(rho0, env0),
        step_unitaries=tuple(unitaries),
    )
