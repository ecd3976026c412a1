import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmarkov import (
    NotHermitian,
    DimensionMismatch,
    fidelity,
    hermitian_eig,
    partial_trace,
    permute_legs,
    tensor_product,
    trace_norm_distance,
)

from oracles import P0, P1, PP, SX, SZ, kron_loops, partial_trace_loops

RNG = np.random.default_rng(101)


def _rand_complex(shape, rng=RNG):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _rand_hermitian(d, rng=RNG):
    a = _rand_complex((d, d), rng)
    return (a + a.conj().T) / 2


def _rand_psd(d, rng=RNG):
    a = _rand_complex((d, d), rng)
    return a @ a.conj().T


# ---------------------------------------------------------------------------
# tensor_product
# ---------------------------------------------------------------------------

def test_tensor_product_identity():
    assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_product_basis_bookkeeping():
    m = tensor_product(SX, P0)
    expected = np.zeros((4, 4))
    expected[2, 0] = 1.0
    expected[0, 2] = 1.0
    assert np.abs(m - expected).max() == 0.0


def test_tensor_product_against_loop_oracle():
    a = _rand_complex((3, 3))
    b = _rand_complex((2, 2))
    assert np.abs(tensor_product(a, b) - kron_loops(a, b)).max() <= 1e-15


def test_tensor_product_associative():
    a, b, c = (_rand_complex((2, 2)) for _ in range(3))
    a, b, c = (m / np.abs(m).max() for m in (a, b, c))
    lhs = tensor_product(tensor_product(a, b), c)
    rhs = tensor_product(a, tensor_product(b, c))
    assert np.abs(lhs - rhs).max() <= 1e-15


# ---------------------------------------------------------------------------
# partial_trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_case():
    rho_a = _rand_psd(2)
    rho_b = _rand_psd(3)
    out = partial_trace(tensor_product(rho_a, rho_b), (2, 3), keep=[0])
    assert np.abs(out - rho_a * np.trace(rho_b)).max() <= 1e-12


def test_partial_trace_bell_marginal():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    out = partial_trace(rho, (2, 2), keep=[0])
    assert np.abs(out - np.eye(2) / 2).max() <= 1e-15


def test_partial_trace_against_index_sum_oracle():
    m = _rand_psd(6)
    got = partial_trace(m, (2, 3), keep=[1])
    assert np.abs(got - partial_trace_loops(m, (2, 3), [1])).max() <= 1e-14


def test_partial_trace_all_legs_is_trace():
    m = _rand_complex((4, 4))
    out = partial_trace(m, (2, 2), keep=[])
    assert abs(out[0, 0] - np.trace(m)) <= 1e-13


def test_partial_trace_dimension_error():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(4), (2, 3), keep=[0])


# ---------------------------------------------------------------------------
# permute_legs
# ---------------------------------------------------------------------------

def test_permute_identity():
    m = _rand_complex((8, 8))
    assert np.array_equal(permute_legs(m, (2, 2, 2), [0, 1, 2]), m)


def test_permute_swap_product():
    a, b = _rand_complex((2, 2)), _rand_complex((3, 3))
    got = permute_legs(tensor_product(a, b), (2, 3), [1, 0])
    assert np.abs(got - tensor_product(b, a)).max() <= 1e-15


def test_permute_round_trip():
    m = _rand_complex((8, 8))
    perm = [2, 0, 1]
    inverse = [perm.index(i) for i in range(3)]
    back = permute_legs(permute_legs(m, (2, 2, 2), perm),
                        (2, 2, 2), inverse)
    assert np.abs(back - m).max() <= 1e-15


def test_permute_invalid():
    with pytest.raises(Exception):
        permute_legs(np.eye(4), (2, 2), [0, 0])


# ---------------------------------------------------------------------------
# hermitian_eig
# ---------------------------------------------------------------------------

def test_eig_sigma_z():
    w, v = hermitian_eig(SZ)
    assert np.allclose(w, [-1, 1])
    assert np.abs(v @ v.conj().T - np.eye(2)).max() <= 1e-12


def test_eig_identity():
    w, _ = hermitian_eig(np.eye(4))
    assert np.allclose(w, 1.0)


def test_eig_reconstruction():
    m = _rand_hermitian(8)
    w, v = hermitian_eig(m)
    assert np.all(np.diff(w) >= -1e-14)
    assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-10 * 8


def test_eig_sum_equals_trace():
    m = _rand_hermitian(6)
    w, _ = hermitian_eig(m)
    assert abs(w.sum() - np.trace(m).real) <= 1e-10 * 6


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# trace_norm_distance
# ---------------------------------------------------------------------------

def test_trace_norm_zero_on_equal():
    m = _rand_hermitian(3)
    assert trace_norm_distance(m, m) == 0.0


def test_trace_norm_orthogonal_pure_states():
    assert abs(trace_norm_distance(P0, P1) - 2.0) <= 1e-14


def test_trace_norm_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        trace_norm_distance(np.eye(2), np.eye(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_trace_norm_is_a_metric(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_rand_hermitian(3, rng) for _ in range(3))
    dab = trace_norm_distance(a, b)
    dba = trace_norm_distance(b, a)
    assert abs(dab - dba) <= 1e-12
    assert dab >= 0.0
    assert trace_norm_distance(a, c) <= dab + trace_norm_distance(b, c) + 1e-10


def test_fidelity_pure_states():
    assert abs(fidelity(PP, PP) - 1.0) <= 1e-12
    assert fidelity(P0, P1) <= 1e-12
