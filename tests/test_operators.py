"""Operator algebra and exact propagation primitives."""

import numpy as np
import pytest

from spinbath import (
    ContractError,
    CouplingSpec,
    Propagator,
    ResourceLimitError,
    build_operator_set,
    evolve,
    sample_couplings,
)
from spinbath.operators import DEFAULT_MAX_BATH


def test_operator_set_shapes_and_dim():
    ops = build_operator_set(3)
    assert ops.dim == 16
    assert ops.sx.shape == (16, 16)
    assert len(ops.ix) == 3
    assert len(ops.iy) == 3
    assert len(ops.iz) == 3


def test_spin_half_normalization():
    # Tr(S_u^2) = dim / 4 for the +-1/2 convention
    ops = build_operator_set(2)
    for u in "xyz":
        s_u = getattr(ops, "s" + u)
        tr = np.trace(s_u @ s_u).real
        assert tr == pytest.approx(ops.dim / 4.0)


def test_su2_commutators():
    ops = build_operator_set(2)
    comm = ops.sx @ ops.sy - ops.sy @ ops.sx
    assert np.allclose(comm, 1j * ops.sz, atol=1e-14)
    for j in range(2):
        comm = ops.ix[j] @ ops.iy[j] - ops.iy[j] @ ops.ix[j]
        assert np.allclose(comm, 1j * ops.iz[j], atol=1e-14)


def test_distinct_sites_commute():
    ops = build_operator_set(3)
    pairs = [(ops.sx, ops.iz[0]), (ops.ix[0], ops.iy[1]), (ops.iz[1], ops.iz[2])]
    for a, b in pairs:
        assert np.allclose(a @ b, b @ a, atol=1e-14)


def test_operator_arrays_are_read_only():
    ops = build_operator_set(1)
    with pytest.raises(ValueError):
        ops.sx[0, 0] = 1.0


def test_bath_cap_enforced():
    with pytest.raises(ResourceLimitError):
        build_operator_set(13)
    # the couplings are checked against the same cap before any is drawn
    with pytest.raises(ResourceLimitError):
        sample_couplings(CouplingSpec(), DEFAULT_MAX_BATH + 1)


def test_negative_bath_count_rejected():
    with pytest.raises(ContractError):
        build_operator_set(-1)
    with pytest.raises(ContractError):
        sample_couplings(CouplingSpec(), -1)


def test_evolve_matches_closed_form_rotation():
    # exp(-i theta S_y) on a bare spin against the 2x2 closed form
    ops = build_operator_set(0)
    theta = 0.7318
    u = evolve(theta * ops.sy, 1.0).matrix
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    expected = np.array([[c, -s], [s, c]], dtype=complex)
    assert np.allclose(u, expected, atol=1e-14)


def test_evolve_unitarity_and_composition():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) / 2
    u1 = evolve(h, 0.3).matrix
    u2 = evolve(h, 0.7).matrix
    u3 = evolve(h, 1.0).matrix
    assert np.allclose(u2 @ u1, u3, atol=1e-12)
    assert np.allclose(u1 @ u1.conj().T, np.eye(8), atol=1e-12)


def test_evolve_rejects_non_hermitian_and_negative_time():
    with pytest.raises(ContractError):
        evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ContractError):
        evolve(np.eye(2), -0.1)


def test_propagator_contract():
    with pytest.raises(ContractError):
        Propagator(np.ones((2, 2)), 1.0)
    with pytest.raises(ContractError):
        Propagator(np.eye(2), -1.0)

