"""Dense spin-1/2 operator algebra on a system (+) bath Hilbert space.

One central spin-1/2 occupies the first tensor factor; ``n_bath`` further
spin-1/2 particles follow in index order. All operators use the eigenvalue
convention +-1/2 (hbar = 1), so a pi rotation is exp(-i pi S_u) and
Tr(S_u^2) = dim/4. Matrices are dense complex numpy arrays; time evolution
goes through an exact Hermitian eigendecomposition, never through splitting
approximations.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ResourceLimitError

HERMITIAN_ATOL = 1e-10
UNITARY_ATOL = 1e-10
DENSITY_ATOL = 1e-10
DEFAULT_MAX_BATH = 12

_SPIN_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}


def _frozen(a):
    a = np.ascontiguousarray(a, dtype=complex)
    a.setflags(write=False)
    return a


def _site_operator(op2, site, n_sites):
    """Embed a single-spin operator at tensor position `site` of `n_sites`."""
    left = np.eye(2**site, dtype=complex)
    right = np.eye(2 ** (n_sites - site - 1), dtype=complex)
    return np.kron(np.kron(left, op2), right)


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Embedded spin operators for one system spin plus a bath.

    Attributes
    ----------
    n_bath : int
        Number of bath spins.
    dim : int
        Total Hilbert-space dimension, 2**(n_bath + 1).
    sx, sy, sz : ndarray
        System spin components S_u acting on the full space.
    identity : ndarray
        The full-space identity.
    ix, iy, iz : tuple of ndarray
        Bath spin components I_u^j, indexed 0 .. n_bath - 1. Each tuple is
        built on first access and cached; the engine never needs them.
    """

    n_bath: int
    dim: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    identity: np.ndarray

    def s(self, axis):
        """System spin component along 'x', 'y' or 'z'."""
        try:
            return {"x": self.sx, "y": self.sy, "z": self.sz}[axis]
        except KeyError:
            raise ContractError(f"unknown axis {axis!r}; expected 'x', 'y' or 'z'") from None

    def _bath(self, axis):
        return tuple(_frozen(_site_operator(_SPIN_HALF[axis], j + 1, self.n_bath + 1))
                     for j in range(self.n_bath))

    @functools.cached_property
    def ix(self):
        return self._bath("x")

    @functools.cached_property
    def iy(self):
        return self._bath("y")

    @functools.cached_property
    def iz(self):
        return self._bath("z")


def build_operator_set(n_bath, max_bath=DEFAULT_MAX_BATH):
    """Construct the system spin operators for `n_bath` bath spins.

    Raises
    ------
    ResourceLimitError
        When n_bath exceeds `max_bath`; the message names the dense
        dimension the request would have needed.
    """
    n_bath = int(n_bath)
    if n_bath < 0:
        raise ContractError(f"n_bath must be >= 0, got {n_bath}")
    if n_bath > max_bath:
        raise ResourceLimitError(
            f"n_bath={n_bath} needs dense dimension 2**{n_bath + 1} = {2 ** (n_bath + 1)}, "
            f"above the cap 2**{max_bath + 1} (max_bath={max_bath})"
        )
    n_sites = n_bath + 1
    dim = 2**n_sites
    sys_ops = {u: _frozen(_site_operator(_SPIN_HALF[u], 0, n_sites)) for u in "xyz"}
    return OperatorSet(
        n_bath=n_bath,
        dim=dim,
        sx=sys_ops["x"],
        sy=sys_ops["y"],
        sz=sys_ops["z"],
        identity=_frozen(np.eye(dim, dtype=complex)),
    )


def require_hermitian(h, what="operator", atol=HERMITIAN_ATOL):
    """Raise ContractError unless `h` is Hermitian within `atol` (scaled)."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractError(f"{what} must be a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0)
    dev = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if dev > atol * scale:
        raise ContractError(f"{what} is not Hermitian: max deviation {dev:.3e}")
    return h


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A physical state: Hermitian, unit trace, positive within tolerance."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        require_hermitian(m, "density operator", DENSITY_ATOL)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > DENSITY_ATOL:
            raise ContractError(f"density operator trace {tr} is not 1 within {DENSITY_ATOL}")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -DENSITY_ATOL:
            raise ContractError(f"density operator has eigenvalue {lo:.3e} below -{DENSITY_ATOL}")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Propagator:
    """A unitary evolution operator together with the wall time it spans."""

    matrix: np.ndarray
    duration: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ContractError(f"propagator must be square, got shape {m.shape}")
        dev = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
        if dev > UNITARY_ATOL * max(1.0, m.shape[0] ** 0.5):
            raise ContractError(f"propagator is not unitary: max deviation {dev:.3e}")
        if self.duration < 0:
            raise ContractError(f"propagator duration must be >= 0, got {self.duration}")
        object.__setattr__(self, "matrix", _frozen(m))
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
    if t < 0:
        raise ContractError(f"evolve() needs t >= 0, got {t}")
    return Propagator(exp_propagators(h, (t,))[t], t)


def exp_propagators(h, times):
    """{t: exp(-i H t)} as raw arrays for every t in `times`, from one
    diagonalization of the Hermitian H (not checked here), none if no times."""
    if not times:
        return {}
    w, v = np.linalg.eigh(h)
    return {t: (v * np.exp(-1j * w * t)) @ v.conj().T for t in times}


def partial_trace_bath(rho, n_bath):
    """Trace out every bath spin, leaving the 2x2 system state.

    Accepts a DensityOperator or a raw matrix of matching dimension and
    returns a DensityOperator. Linear and trace preserving.
    """
    m = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    dim = 2 ** (int(n_bath) + 1)
    if m.shape != (dim, dim):
        raise ContractError(f"expected shape ({dim}, {dim}) for n_bath={n_bath}, got {m.shape}")
    db = dim // 2
    reduced = m.reshape(2, db, 2, db)
    out = np.einsum("abcb->ac", reduced)
    return DensityOperator(out)


def overlap(a, rho):
    """Tr(A rho) for an observable A and a state (or raw matrix) rho."""
    m = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    a = np.asarray(a, dtype=complex)
    if a.shape != m.shape:
        raise ContractError(f"shape mismatch {a.shape} vs {m.shape}")
    return complex(np.einsum("ij,ji->", a, m))
