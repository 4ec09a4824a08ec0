"""Rotating-frame Hamiltonians for one central spin coupled to a spin bath.

The central spin sees a pure-dephasing (Ising) hyperfine-like coupling to
each bath spin, while the bath evolves under a secular dipolar interaction
that exchanges polarization through flip-flops but conserves total I_z.
There is no system-only term: on resonance the qubit Hamiltonian vanishes
and everything of interest sits in the couplings. Couplings are angular
frequencies in rad/us and times are in us throughout.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .operators import DEFAULT_MAX_BATH, OperatorSet, build_operator_set, require_hermitian
from .util import KHZ_TO_RAD_PER_US

COUPLING_DISTRIBUTIONS = ("uniform_symmetric", "gaussian")

# Desk-scale default bath, calibrated against the package's own dynamics:
# the intra-bath correlation time lands near 110 us and the echo stretches
# the free-induction decay time by roughly a factor of two. The system-bath
# scale matches the intra-bath one on purpose; a much weaker coupling makes
# the echo saturate on a finite-bath plateau above 1/e instead of decaying.
DEFAULT_N_BATH = 7
DEFAULT_B_SCALE = 2.6 * KHZ_TO_RAD_PER_US
DEFAULT_D_SCALE = 2.6 * KHZ_TO_RAD_PER_US
DEFAULT_COUPLING_SEED = 37


@dataclass(frozen=True, eq=False)
class SpinBathModel:
    """Immutable bundle of couplings plus the matching operator set.

    Attributes
    ----------
    n_bath : int
        Number of bath spins.
    b : ndarray, shape (n_bath,)
        System-bath Ising couplings b_j in rad/us.
    d : ndarray, shape (n_bath, n_bath)
        Symmetric intra-bath dipolar couplings with zero diagonal, rad/us.
    ops : OperatorSet
        Embedded operators for this dimension.
    """

    n_bath: int
    b: np.ndarray
    d: np.ndarray
    ops: OperatorSet


def build_model(b, d, max_bath=DEFAULT_MAX_BATH, ops=None):
    """Validate couplings and assemble a SpinBathModel.

    `b` is the length-n vector of system-bath couplings; `d` the symmetric
    intra-bath coupling matrix (zero diagonal). Pass an existing `ops` to
    reuse cached operators of the right dimension.
    """
    b = np.asarray(b, dtype=float).copy()
    d = np.asarray(d, dtype=float).copy()
    if b.ndim != 1:
        raise ContractError(f"b must be a vector, got shape {b.shape}")
    n = b.size
    if d.shape != (n, n):
        raise ContractError(f"d must have shape ({n}, {n}), got {d.shape}")
    scale = max(1.0, float(np.max(np.abs(d))) if d.size else 1.0)
    if d.size and float(np.max(np.abs(d - d.T))) > 1e-12 * scale:
        raise ContractError("d must be symmetric")
    if d.size and float(np.max(np.abs(np.diag(d)))) > 1e-12 * scale:
        raise ContractError("d must have zero diagonal")
    if ops is None:
        ops = build_operator_set(n, max_bath=max_bath)
    elif ops.n_bath != n:
        raise ContractError(f"operator set is for n_bath={ops.n_bath}, couplings for {n}")
    b.setflags(write=False)
    d.setflags(write=False)
    return SpinBathModel(n_bath=n, b=b, d=d, ops=ops)


@dataclass(frozen=True)
class CouplingSpec:
    """Recipe for drawing random couplings up to the given scales.

    distribution 'uniform_symmetric' is flat on [-scale, scale]; 'gaussian'
    uses sd = scale/3 clipped to the same interval, so the posted bound
    max|coupling| <= scale holds for both.
    """

    b_scale: float = DEFAULT_B_SCALE
    d_scale: float = DEFAULT_D_SCALE
    distribution: str = "uniform_symmetric"
    seed: int = DEFAULT_COUPLING_SEED

    def __post_init__(self):
        if self.distribution not in COUPLING_DISTRIBUTIONS:
            raise ContractError(f"unknown coupling distribution {self.distribution!r}")
        if self.b_scale < 0 or self.d_scale < 0:
            raise ContractError("coupling scales must be >= 0")
        if self.seed < 0:
            raise ContractError(f"coupling seed must be >= 0, got {self.seed}")


def sample_couplings(spec, n_bath):
    """Draw (b, d) for `n_bath` spins from a CouplingSpec.

    Deterministic in spec.seed. Returns b of shape (n,) and a symmetric
    zero-diagonal d of shape (n, n) with max|b| <= b_scale and
    max|d| <= d_scale.
    """
    n = int(n_bath)
    if n < 0:
        raise ContractError(f"n_bath must be >= 0, got {n}")
    rng = np.random.default_rng(spec.seed)

    def draw(scale, size):
        if scale == 0.0:
            return np.zeros(size)
        if spec.distribution == "uniform_symmetric":
            return rng.uniform(-scale, scale, size)
        return np.clip(rng.normal(0.0, scale / 3.0, size), -scale, scale)

    b = draw(spec.b_scale, n)
    d = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    vals = draw(spec.d_scale, iu[0].size)
    d[iu] = vals
    d = d + d.T
    return b, d


def default_model(seed=DEFAULT_COUPLING_SEED, n_bath=DEFAULT_N_BATH,
                  b_scale=DEFAULT_B_SCALE, d_scale=DEFAULT_D_SCALE):
    """The calibrated desk-scale bath used by tests and demo scripts."""
    spec = CouplingSpec(b_scale=b_scale, d_scale=d_scale,
                        distribution="uniform_symmetric", seed=seed)
    b, d = sample_couplings(spec, n_bath)
    return build_model(b, d)


def _basis_z(n_sites):
    """S_z eigenvalues of every site on the product basis, shape (n_sites, 2**n_sites).

    Site 0 is the system spin and site j + 1 bath spin j; site q is bit
    n_sites - 1 - q of the basis index, and bit 0 means spin up (+1/2).
    """
    shifts = np.arange(n_sites - 1, -1, -1)
    return 0.5 - ((np.arange(2**n_sites) >> shifts[:, None]) & 1)


def build_h_se(model):
    """System-bath pure-dephasing coupling S_z * sum_j b_j I_z^j.

    Diagonal on the product basis, so it is filled in from the basis bits.
    """
    z = _basis_z(model.n_bath + 1)
    field = np.zeros(model.ops.dim)
    for j in range(model.n_bath):
        if model.b[j] != 0.0:
            field += model.b[j] * z[j + 1]
    return np.diag((z[0] * field).astype(complex))


def build_h_e(model):
    """Secular dipolar bath Hamiltonian.

    sum_{i<j} d_ij [2 I_z^i I_z^j - (I_x^i I_x^j + I_y^i I_y^j)]; the
    flip-flop part exchanges polarization while conserving total I_z.
    Built from the basis bits: the Ising part is diagonal, and the
    flip-flop part puts -d_ij / 2 between basis states that differ by
    swapping opposite spins i and j.
    """
    n, dim = model.n_bath, model.ops.dim
    z = _basis_z(n + 1)[1:]
    index = np.arange(dim)
    diag = np.zeros(dim)
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            dij = model.d[i, j]
            if dij == 0.0:
                continue
            diag += dij * (2.0 * z[i] * z[j])
            flip = index[z[i] != z[j]]
            h[flip ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j))), flip] = -0.5 * dij
    h[index, index] = diag
    return h


def build_h_free(model):
    """Full free Hamiltonian H_SE + H_E."""
    return build_h_se(model) + build_h_e(model)


def build_h_error(a, b_u, model):
    """General error Hamiltonian sum_u S_u (a_u + sum_j b_uj I_z^j).

    Parameters
    ----------
    a : array-like, shape (3,)
        Pure system error field components (x, y, z), rad/us.
    b_u : array-like, shape (3, n_bath)
        Per-axis system-bath couplings; row order x, y, z.
    model : SpinBathModel

    Returns
    -------
    ndarray
        A Hermitian, traceless matrix. Reduces to build_h_se(model) for
        a = 0 and b_u rows (0, 0, b).
    """
    a = np.asarray(a, dtype=float)
    b_u = np.asarray(b_u, dtype=float)
    if a.shape != (3,):
        raise ContractError(f"a must have shape (3,), got {a.shape}")
    if b_u.shape != (3, model.n_bath):
        raise ContractError(f"b_u must have shape (3, {model.n_bath}), got {b_u.shape}")
    ops = model.ops
    h = np.zeros((ops.dim, ops.dim), dtype=complex)
    for u, s_u in enumerate((ops.sx, ops.sy, ops.sz)):
        field = a[u] * ops.identity
        for j in range(model.n_bath):
            if b_u[u, j] != 0.0:
                field = field + b_u[u, j] * ops.iz[j]
        if a[u] != 0.0 or np.any(b_u[u] != 0.0):
            h += s_u @ field
    return require_hermitian(h, "error Hamiltonian")
