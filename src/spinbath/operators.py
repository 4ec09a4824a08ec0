"""Sizes, spin-1/2 matrices and exact propagators on a system (+) bath space.

One central spin-1/2 occupies the first tensor factor; ``n_bath`` further
spin-1/2 particles follow in index order. All operators use the eigenvalue
convention +-1/2 (hbar = 1), so a pi rotation is exp(-i pi S_u) and
Tr(S_u^2) = dim/4. Matrices are dense complex numpy arrays; time evolution
goes through an exact Hermitian eigendecomposition, never through splitting
approximations; exp_propagator is the one exp(-i H t) kernel.

No spin operator is embedded in the full space: an OperatorSet holds the
sizes alone, and the Hamiltonians are filled per sector from the basis bits
(hamiltonians). tests/kron_oracle.py writes the dense operators out as the
tests' reference.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ResourceLimitError
from .util import require_int

HERMITIAN_ATOL = 1e-10
UNITARY_ATOL = 1e-10
DEFAULT_MAX_BATH = 12

_SPIN_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """The sizes of one system spin plus a bath: n_bath bath spins and the
    full-space dimension dim = 2**(n_bath + 1). It holds no operator; the
    Hamiltonians are filled per sector from the basis bits (hamiltonians)."""

    n_bath: int
    dim: int


def _checked_n_bath(n_bath):
    """n_bath, an integer (util.require_int), checked before anything of that
    size is allocated.

    Raises
    ------
    ResourceLimitError
        When n_bath exceeds DEFAULT_MAX_BATH; the message names the dense
        dimension the request would have needed.
    """
    n_bath = int(require_int(n_bath, "n_bath"))
    if n_bath < 0:
        raise ContractError(f"n_bath must be >= 0, got {n_bath}")
    if n_bath > DEFAULT_MAX_BATH:
        raise ResourceLimitError(
            f"n_bath={n_bath} needs dense dimension 2**{n_bath + 1} = {2 ** (n_bath + 1)}, "
            f"above the cap 2**{DEFAULT_MAX_BATH + 1} (DEFAULT_MAX_BATH={DEFAULT_MAX_BATH})"
        )
    return n_bath


def build_operator_set(n_bath):
    """The operator set for `n_bath` bath spins (see _checked_n_bath)."""
    n_bath = _checked_n_bath(n_bath)
    return OperatorSet(n_bath=n_bath, dim=2 ** (n_bath + 1))


def require_hermitian(h, what="operator", atol=HERMITIAN_ATOL):
    """Raise ContractError unless `h` is Hermitian within `atol` (scaled)."""
    return _hermitian_moduli(h, what, atol)[0]


def _hermitian_moduli(h, what, atol=HERMITIAN_ATOL):
    """(h, |h|): require_hermitian's h, checked, and the moduli its check forms."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractError(f"{what} must be a square matrix, got shape {h.shape}")
    # before any arithmetic, which inf would turn into NaN with a warning
    if not np.isfinite(h).all():
        raise ContractError(f"{what} is not Hermitian: it has a non-finite entry")
    # |conj(h) - h^T| is |h - h^dag| transposed, without a strided conjugate
    dev = float(np.max(np.abs(h.conj() - h.T))) if h.size else 0.0
    a = np.abs(h)
    scale = max(1.0, float(np.max(a)) if h.size else 1.0)
    # written so that NaN and inf fail
    if not dev <= atol * scale:
        raise ContractError(f"{what} is not Hermitian: max deviation {dev:.3e}")
    return h, a


@dataclass(frozen=True, eq=False)
class Propagator:
    """A unitary evolution operator together with the wall time it spans."""

    matrix: np.ndarray
    duration: float

    def __post_init__(self):
        # a copy, so that freezing it below leaves the caller's array writable
        m = np.array(self.matrix, dtype=complex, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ContractError(f"propagator must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ContractError("propagator is not unitary: it has a non-finite entry")
        dev = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
        # written so that NaN and inf fail
        if not dev <= UNITARY_ATOL * max(1.0, m.shape[0] ** 0.5):
            raise ContractError(f"propagator is not unitary: max deviation {dev:.3e}")
        if not 0 <= self.duration < np.inf:
            raise ContractError(f"propagator duration must be finite and >= 0, got {self.duration}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "duration", float(self.duration))

    @property
    def dim(self):
        return self.matrix.shape[0]


def evolve(h, t):
    """Exact propagator exp(-i H t) of a Hermitian H over time t >= 0.

    Parameters
    ----------
    h : ndarray
        Hermitian matrix (checked within 1e-10, scaled by its magnitude).
    t : float
        Evolution time in us.

    Returns
    -------
    Propagator
    """
    h = require_hermitian(np.asarray(h, dtype=complex), "evolve() Hamiltonian")
    t = float(t)
    if not 0 <= t < np.inf:
        raise ContractError(f"evolve() needs a finite t >= 0, got {t}")
    return Propagator(exp_propagator(h, t), t)


def exp_propagator(h, t):
    """exp(-i H t) as a raw array, from one diagonalization of the Hermitian H
    (not checked here); a stack of matrices, shape (..., n, n), is
    exponentiated matrix by matrix. A real H has real eigenvectors V, so
    its real and imaginary parts come from two real products, V cos(w t) V^T
    and -V sin(w t) V^T, at half the cost of one complex product."""
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * w[..., None, :] * t)
    if np.iscomplexobj(v):
        return (v * phases) @ v.conj().swapaxes(-1, -2)
    vt = v.swapaxes(-1, -2)
    out = np.empty(v.shape, dtype=complex)
    out.real, out.imag = (v * phases.real) @ vt, (v * phases.imag) @ vt
    return out
