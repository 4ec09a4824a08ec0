"""Model construction and the physical structure of the Hamiltonians."""

import numpy as np
import pytest

from spinbath import (
    ContractError,
    CouplingSpec,
    build_h_e,
    build_h_error,
    build_h_free,
    build_h_se,
    build_model,
    build_operator_set,
    default_model,
    model_tau_b,
    sample_couplings,
)


def _total_iz(ops):
    return np.sum(ops.iz, axis=0)


def test_sample_couplings_deterministic_and_bounded():
    spec = CouplingSpec(b_scale=0.4, d_scale=0.9, seed=123)
    b1, d1 = sample_couplings(spec, 6)
    b2, d2 = sample_couplings(spec, 6)
    assert np.array_equal(b1, b2)
    assert np.array_equal(d1, d2)
    assert np.max(np.abs(b1)) <= 0.4
    assert np.max(np.abs(d1)) <= 0.9
    assert np.allclose(d1, d1.T)
    assert np.all(np.diag(d1) == 0.0)


def test_sample_couplings_gaussian_respects_bound():
    spec = CouplingSpec(b_scale=0.2, d_scale=0.5, distribution="gaussian", seed=9)
    b, d = sample_couplings(spec, 8)
    assert np.max(np.abs(b)) <= 0.2
    assert np.max(np.abs(d)) <= 0.5


def test_sample_couplings_zero_scale_gives_zeros():
    spec = CouplingSpec(b_scale=0.0, d_scale=0.0, seed=1)
    b, d = sample_couplings(spec, 5)
    assert np.all(b == 0.0)
    assert np.all(d == 0.0)


def test_explicit_spec_refuses_sampling():
    with pytest.raises(ContractError):
        CouplingSpec(distribution="lorentzian")
    with pytest.raises(ContractError):
        CouplingSpec(b_scale=-0.1)
    with pytest.raises(ContractError, match="seed"):
        CouplingSpec(seed=-3)


def test_build_model_validates_shapes():
    with pytest.raises(ContractError):
        build_model(np.zeros(3), np.zeros((2, 2)))
    d = np.zeros((3, 3))
    d[0, 1] = 0.2  # not symmetric
    with pytest.raises(ContractError):
        build_model(np.zeros(3), d)
    d_bad = np.eye(3)  # nonzero diagonal
    with pytest.raises(ContractError):
        build_model(np.zeros(3), d_bad)


def test_h_se_structure():
    m = default_model(n_bath=3)
    h = build_h_se(m)
    ops = m.ops
    expected = ops.sz @ sum(m.b[j] * ops.iz[j] for j in range(3))
    assert np.allclose(h, expected, atol=1e-14)
    # pure dephasing: commutes with S_z, not with S_x
    assert np.allclose(h @ ops.sz, ops.sz @ h, atol=1e-14)
    assert not np.allclose(h @ ops.sx, ops.sx @ h, atol=1e-8)


_PAULI_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}


def _dense_pieces(m):
    """H_SE and H_E from products of kron-embedded spin operators, written
    out here independently of the package's basis-bit kernels."""
    n_sites = m.n_bath + 1

    def site(axis, q):
        return np.kron(np.kron(np.eye(2**q), _PAULI_HALF[axis]),
                       np.eye(2 ** (n_sites - q - 1)))

    dim = 2**n_sites
    ix = [site("x", j + 1) for j in range(m.n_bath)]
    iy = [site("y", j + 1) for j in range(m.n_bath)]
    iz = [site("z", j + 1) for j in range(m.n_bath)]
    field = np.zeros((dim, dim), dtype=complex)
    for j in range(m.n_bath):
        if m.b[j] != 0.0:
            field += m.b[j] * iz[j]
    h_e = np.zeros((dim, dim), dtype=complex)
    for i in range(m.n_bath):
        for j in range(i + 1, m.n_bath):
            if m.d[i, j] != 0.0:
                h_e += m.d[i, j] * (2.0 * iz[i] @ iz[j] - ix[i] @ ix[j] - iy[i] @ iy[j])
    return site("z", 0) @ field, h_e


@pytest.mark.parametrize("distribution", ["uniform_symmetric", "gaussian"])
@pytest.mark.parametrize("n_bath", range(7))
def test_basis_bit_kernels_equal_dense_products(n_bath, distribution):
    spec = CouplingSpec(b_scale=0.3, d_scale=0.2, distribution=distribution,
                        seed=10 + n_bath)
    m = build_model(*sample_couplings(spec, n_bath))
    h_se, h_e = _dense_pieces(m)
    assert np.array_equal(build_h_se(m), h_se)
    assert np.array_equal(build_h_e(m), h_e)
    assert np.array_equal(build_h_free(m), h_se + h_e)


def test_basis_bit_kernels_skip_zero_couplings_like_dense_products():
    b = np.array([0.2, 0.0, -0.1, 0.0, 0.05])
    d = np.zeros((5, 5))
    for (i, j), v in {(0, 1): 0.3, (0, 4): -0.2, (2, 3): 0.15, (3, 4): 0.07}.items():
        d[i, j] = d[j, i] = v
    m = build_model(b, d)
    h_se, h_e = _dense_pieces(m)
    assert np.array_equal(build_h_se(m), h_se)
    assert np.array_equal(build_h_e(m), h_e)
    assert np.array_equal(build_h_free(m), h_se + h_e)


def test_h_e_conserves_total_iz_and_ignores_system():
    m = default_model(n_bath=4)
    h = build_h_e(m)
    ops = m.ops
    iz_tot = _total_iz(ops)
    assert np.max(np.abs(h @ iz_tot - iz_tot @ h)) < 1e-13
    for s in (ops.sx, ops.sy, ops.sz):
        assert np.max(np.abs(h @ s - s @ h)) < 1e-13


def test_h_free_is_hermitian_and_traceless():
    m = default_model()
    h = build_h_free(m)
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    assert abs(np.trace(h)) < 1e-12


def test_flip_flop_exchanges_polarization():
    # two bath spins coupled by d swap their I_z expectation periodically
    b = np.zeros(2)
    d = np.array([[0.0, 0.31], [0.31, 0.0]])
    m = build_model(b, d)
    h = build_h_e(m)
    ops = m.ops
    # |up, down> in the bath sector, system along +z
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    psi = np.kron(up, np.kron(up, down)).astype(complex)
    w, v = np.linalg.eigh(h)
    t = np.pi / 0.31  # half a flip-flop period, 2*pi / (2 d)
    phases = np.exp(-1j * w * t)
    psi_t = v @ (phases * (v.conj().T @ psi))
    iz0 = np.real(psi_t.conj() @ ops.iz[0] @ psi_t)
    iz1 = np.real(psi_t.conj() @ ops.iz[1] @ psi_t)
    assert iz0 == pytest.approx(-0.5, abs=1e-9)
    assert iz1 == pytest.approx(+0.5, abs=1e-9)


def test_h_error_generalizes_h_se():
    m = default_model(n_bath=3)
    b_u = np.zeros((3, 3))
    b_u[2] = m.b
    h = build_h_error(np.zeros(3), b_u, m)
    assert np.allclose(h, build_h_se(m), atol=1e-14)


def test_h_error_pure_system_field():
    m = default_model(n_bath=2)
    a = np.array([0.3, -0.2, 0.5])
    h = build_h_error(a, np.zeros((3, 2)), m)
    ops = m.ops
    expected = 0.3 * ops.sx - 0.2 * ops.sy + 0.5 * ops.sz
    assert np.allclose(h, expected, atol=1e-14)


def test_default_model_is_frozen_calibration():
    m = default_model()
    assert m.n_bath == 7
    assert m.ops.dim == 256
    # the shipped couplings stay within their posted scale
    assert np.max(np.abs(m.b)) <= 0.016336281798666925 + 1e-15
    assert np.max(np.abs(m.d)) <= 0.016336281798666925 + 1e-15


def test_weak_coupling_regime_available():
    # a deliberately weak system-bath coupling keeps max|b_j| tau_B below
    # one third, the regime where refocusing works almost perfectly
    base = default_model()
    m = default_model(b_scale=float(np.max(np.abs(base.d))) / 6.0)
    tb = model_tau_b(m)
    assert tb.reached
    assert float(np.max(np.abs(m.b))) * tb.value <= 1.0 / 3.0
