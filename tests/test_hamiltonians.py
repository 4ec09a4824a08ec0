"""Model construction and the physical structure of the Hamiltonians."""

import math

import numpy as np
import pytest

from spinbath import (
    ContractError,
    CouplingSpec,
    ErrorModel,
    PulseSpec,
    build_h_e,
    build_h_error,
    build_h_free,
    build_h_se,
    build_model,
    build_operator_set,
    default_model,
    model_tau_b,
    real_pulse,
    sample_couplings,
)
from spinbath.hamiltonians import _h_e_blocks, _mirror_sectors, _sector_blocks, _sectors


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


def test_build_model_rejects_non_finite_couplings():
    with pytest.raises(ContractError, match="b must be finite"):
        build_model([np.nan, 0.1], np.zeros((2, 2)))
    d = np.zeros((2, 2))
    d[0, 1] = d[1, 0] = np.inf
    with pytest.raises(ContractError, match="d must be finite"):
        build_model(np.zeros(2), d)


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


@pytest.mark.parametrize("n_bath", range(7))
def test_h_e_blocks_scatter_to_build_h_e(n_bath):
    spec = CouplingSpec(b_scale=0.3, d_scale=0.2, seed=20 + n_bath)
    b, d = sample_couplings(spec, n_bath)
    # every third pair uncoupled, so zero entries of d are skipped
    iu = np.triu_indices(n_bath, k=1)
    d[iu[0][::3], iu[1][::3]] = d[iu[1][::3], iu[0][::3]] = 0.0
    m = build_model(b, d)
    blocks = _h_e_blocks(m)
    # the bath halves of the full-space sectors, with blocks C(n, k) wide
    assert [idx.tolist() for idx, _ in blocks] == [
        idx[: idx.size // 2].tolist() for idx in _sectors(n_bath)]
    assert [blk.shape for _, blk in blocks] == [(math.comb(n_bath, k),) * 2
                                                for k in range(n_bath + 1)]
    assert all(blk.dtype == float for _, blk in blocks)
    bath = np.zeros((2**n_bath, 2**n_bath), dtype=complex)
    for idx, blk in blocks:
        bath[np.ix_(idx, idx)] = blk
    assert np.array_equal(np.kron(np.eye(2), bath), build_h_e(m))


def _h_free_blocks_equal_the_dense_slices(m):
    sectors = _sectors(m.n_bath)
    blocks = build_h_free(m, sectors)
    dense = build_h_free(m)
    # the dense scatter against the sum of the two separately built pieces
    assert np.array_equal(dense, build_h_se(m) + build_h_e(m))
    assert len(blocks) == len(sectors)
    for block, sliced in zip(blocks, _sector_blocks(dense, sectors)):
        assert block.dtype == complex
        assert np.array_equal(block, sliced)


@pytest.mark.parametrize("seed", [37, 11, 3])
@pytest.mark.parametrize("n_bath", range(10))
def test_h_free_sector_blocks_equal_the_dense_slices(n_bath, seed):
    _h_free_blocks_equal_the_dense_slices(default_model(seed=seed, n_bath=n_bath))


@pytest.mark.parametrize("n_bath", range(10))
def test_h_free_sector_blocks_of_an_uncoupled_bath(n_bath):
    m = build_model(np.zeros(n_bath), np.zeros((n_bath, n_bath)))
    _h_free_blocks_equal_the_dense_slices(m)
    assert not np.any(build_h_free(m))


@pytest.mark.parametrize("n_bath", range(10))
def test_flipping_every_spin_mirrors_the_sector_blocks(n_bath):
    m = default_model(seed=5 + n_bath, n_bath=n_bath)
    kept = _mirror_sectors(n_bath)
    assert [k for k, _ in kept] == list(range(n_bath // 2 + 1))
    assert sum(weight for _, weight in kept) == n_bath + 1
    # flipping every bath spin reverses the ascending states of sector k
    # into those of sector n - k; on H_free the system spin flips too, which
    # reverses the whole sector block
    h_e = [block for _, block in _h_e_blocks(m)]
    h_free = build_h_free(m, _sectors(n_bath))
    for k in range(n_bath + 1):
        assert np.array_equal(h_e[n_bath - k], h_e[k][::-1, ::-1])
        assert np.array_equal(h_free[n_bath - k], h_free[k][::-1, ::-1])


def test_h_e_conserves_total_iz_and_ignores_system():
    m = default_model(n_bath=4)
    h = build_h_e(m)
    ops = m.ops
    iz_tot = _total_iz(ops)
    assert np.max(np.abs(h @ iz_tot - iz_tot @ h)) < 1e-13
    for s in (ops.sx, ops.sy, ops.sz):
        assert np.max(np.abs(h @ s - s @ h)) < 1e-13


@pytest.mark.parametrize("n_bath", range(8))
def test_sectors_block_h_free_system_operators_and_pulses(n_bath):
    m = default_model(seed=5 + n_bath, n_bath=n_bath)
    ops = m.ops
    sectors = _sectors(n_bath)
    # ordered by k, ascending, a partition of the basis, sizes 2 C(n, k)
    assert [idx.size for idx in sectors] == [2 * math.comb(n_bath, k)
                                             for k in range(n_bath + 1)]
    assert all(np.all(np.diff(idx) > 0) for idx in sectors)
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(ops.dim))
    label = np.empty(ops.dim, dtype=int)
    for k, idx in enumerate(sectors):
        label[idx] = k
        # sector k holds the states with total bath I_z = k - n/2
        if n_bath:
            assert np.array_equal(np.diag(_total_iz(ops)).real[idx],
                                  np.full(idx.size, k - n_bath / 2))
    off = label[:, None] != label[None, :]
    assert np.all(build_h_free(m)[off] == 0.0)
    for axis, s in (("x", ops.sx), ("y", ops.sy), ("z", ops.sz)):
        half = getattr(build_operator_set(0), "s" + axis)
        for idx in sectors:
            assert np.array_equal(s[np.ix_(idx, idx)], np.kron(half, np.eye(idx.size // 2)))
    # a finite pulse with flip error, static tilt and a jitter-sized tilt
    # draw conserves the bath I_z too
    err = ErrorModel(flip_angle_fraction=0.03, axis_tilt=0.05)
    spec = PulseSpec("-x", np.pi, 1.5, np.pi / 1.5)
    u = real_pulse(spec, 0.97, err, build_h_free(m), ops, tilt=0.05 + 0.15).matrix
    assert np.max(np.abs(u[off]), initial=0.0) < 1e-13


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
