"""Operator sizes and exact propagation primitives."""

import dataclasses

import numpy as np
import pytest

import kron_oracle as oracle
from spinbath import (
    CLAIM_IDS,
    ContractError,
    CouplingSpec,
    Propagator,
    ResourceLimitError,
    build_operator_set,
    default_model,
    evolve,
    sample_couplings,
    verify_claim,
)
from spinbath.operators import DEFAULT_MAX_BATH


def test_operator_set_shapes_and_dim():
    # only the sizes: the package embeds no spin operator in the full space
    ops = build_operator_set(3)
    assert (ops.n_bath, ops.dim) == (3, 16)
    assert [f.name for f in dataclasses.fields(ops)] == ["n_bath", "dim"]
    assert not any(hasattr(ops, name) for name in ("sx", "sy", "sz", "ix", "iy", "iz"))
    assert build_operator_set(np.int64(3)).dim == 16


def test_operator_arrays_are_read_only():
    with pytest.raises(ValueError):
        evolve(np.diag([0.5, -0.5]), 1.0).matrix[0, 0] = 1.0


def test_propagator_freezes_a_copy_of_the_callers_array():
    a = np.eye(2, dtype=complex)
    p = Propagator(a, 0.0)
    a[0, 0] = 2.0
    assert p.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        p.matrix[0, 0] = 2.0


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


@pytest.mark.parametrize("build", [
    lambda: build_operator_set(True), lambda: build_operator_set(3.0),
    lambda: default_model(n_bath=2.7), lambda: sample_couplings(CouplingSpec(), "3"),
    *[lambda cid=cid: verify_claim(cid, {"n_bath": 2.9}) for cid in CLAIM_IDS]])
def test_a_non_integer_bath_count_is_rejected(build):
    with pytest.raises(ContractError, match="n_bath must be an integer"):
        build()


def test_evolve_matches_closed_form_rotation():
    # exp(-i theta S_y) on a bare spin against the 2x2 closed form
    theta = 0.7318
    u = evolve(theta * oracle.SPIN_HALF["y"], 1.0).matrix
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_propagator_rejects_non_finite_entries_and_durations(bad):
    with pytest.raises(ContractError, match="not unitary"):
        Propagator(np.full((2, 2), bad), 0.0)
    with pytest.raises(ContractError, match="duration must be finite"):
        Propagator(np.eye(2), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evolve_rejects_a_non_finite_time(bad):
    with pytest.raises(ContractError, match="finite t"):
        evolve(np.eye(2), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evolve_rejects_a_non_finite_hamiltonian(bad):
    h = np.eye(2)
    h[0, 0] = bad
    with pytest.raises(ContractError, match="not Hermitian"):
        evolve(h, 1.0)

