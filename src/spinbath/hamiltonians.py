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
from .operators import OperatorSet, _checked_n_bath, build_operator_set, require_hermitian
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


def build_model(b, d):
    """Validate couplings and assemble a SpinBathModel.

    `b` is the length-n vector of system-bath couplings; `d` the symmetric
    intra-bath coupling matrix (zero diagonal).
    """
    b = np.asarray(b, dtype=float).copy()
    d = np.asarray(d, dtype=float).copy()
    if b.ndim != 1:
        raise ContractError(f"b must be a vector, got shape {b.shape}")
    n = b.size
    if d.shape != (n, n):
        raise ContractError(f"d must have shape ({n}, {n}), got {d.shape}")
    for name, a in (("b", b), ("d", d)):
        if not np.all(np.isfinite(a)):
            raise ContractError(f"{name} must be finite")
    scale = max(1.0, float(np.max(np.abs(d))) if d.size else 1.0)
    if d.size and float(np.max(np.abs(d - d.T))) > 1e-12 * scale:
        raise ContractError("d must be symmetric")
    if d.size and float(np.max(np.abs(np.diag(d)))) > 1e-12 * scale:
        raise ContractError("d must have zero diagonal")
    b.setflags(write=False)
    d.setflags(write=False)
    return SpinBathModel(n_bath=n, b=b, d=d, ops=build_operator_set(n))


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
    max|d| <= d_scale. The n_bath cap is checked before anything is drawn.
    """
    n = _checked_n_bath(n_bath)
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


def _sectors(n_bath):
    """Basis indices of the bath-magnetization sectors, k = 0 .. n_bath
    bath spins up, as ascending arrays.

    H_free, every pulse and the prepared state conserve the total bath
    I_z, so they are block-diagonal in these sectors. Sector k is
    C^2 (x) span{bath states with k up}, of size 2 C(n_bath, k); the system
    spin is the top bit, so it stays a tensor factor of every block.
    """
    up = np.sum(_basis_z(n_bath + 1)[1:] > 0, axis=0)
    return [np.flatnonzero(up == k) for k in range(n_bath + 1)]


def _mirror_sectors(n_bath):
    """(k, multiplicity) of the sectors left when flipping every bath spin is
    a symmetry: the flip maps sector k onto sector n_bath - k, with its
    ascending bath states reversed, so k < n_bath - k stands for both and the
    middle sector k = n_bath / 2 stands for itself."""
    return [(k, 2 if 2 * k < n_bath else 1) for k in range(n_bath // 2 + 1)]


def _sector_blocks(a, sectors):
    """The diagonal blocks of the full-space matrix `a` on `sectors`."""
    return [a[np.ix_(idx, idx)] for idx in sectors]


def _h_se_diagonal(model):
    """The diagonal of H_SE = S_z * sum_j b_j I_z^j on the product basis, from
    the basis bits; H_SE has no other entries."""
    z = _basis_z(model.n_bath + 1)
    field = np.zeros(model.ops.dim)
    for j in range(model.n_bath):
        if model.b[j] != 0.0:
            field += model.b[j] * z[j + 1]
    return z[0] * field


def build_h_se(model):
    """System-bath pure-dephasing coupling S_z * sum_j b_j I_z^j."""
    return np.diag(_h_se_diagonal(model).astype(complex))


def _flip_flops(model):
    """H_E on the 2**n_bath bath states from the basis bits: its diagonal (the
    Ising part) and the (rows, columns, values) of its flip-flop entries,
    -d_ij / 2 between states that differ by swapping opposite spins i and j."""
    n = model.n_bath
    z = _basis_z(n)
    i, j = np.nonzero(np.triu(model.d, 1))
    dij = model.d[i, j]
    # summed over the pairs in order, as a loop over i < j would
    diag = np.sum(dij[:, None] * (2.0 * z[i] * z[j]), axis=0)
    pair, cols = np.nonzero(z[i] != z[j])
    rows = cols ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j)))[pair]
    return diag, rows, cols, -0.5 * dij[pair]


def _diagonal_blocks(diag, rows, cols, vals, sectors):
    """The diagonal blocks on the ascending index arrays `sectors` of the
    matrix with diagonal `diag` and off-diagonal entries `vals` at (rows,
    cols), none of which couples two sectors; the blocks take diag's dtype."""
    label, pos = np.full(diag.size, -1), np.empty(diag.size, dtype=int)
    for k, idx in enumerate(sectors):
        label[idx], pos[idx] = k, np.arange(idx.size)
    blocks = []
    for k, idx in enumerate(sectors):
        mine = label[cols] == k
        block = np.diag(diag[idx])
        block[pos[rows[mine]], pos[cols[mine]]] = vals[mine]
        blocks.append(block)
    return blocks


def _h_e_blocks(model):
    """H_E on the bath space as (indices, block) per sector k = 0 .. n_bath:
    the ascending bath states with k spins up and their real block."""
    diag, rows, cols, vals = _flip_flops(model)
    up = model.n_bath - np.bitwise_count(np.arange(diag.size))
    sectors = [np.flatnonzero(up == k) for k in range(model.n_bath + 1)]
    return list(zip(sectors, _diagonal_blocks(diag, rows, cols, vals, sectors)))


def build_h_e(model):
    """Secular dipolar bath Hamiltonian, 1_system (x) H_E from _flip_flops.

    sum_{i<j} d_ij [2 I_z^i I_z^j - (I_x^i I_x^j + I_y^i I_y^j)]; the
    flip-flop part exchanges polarization while conserving total I_z.
    """
    diag, rows, cols, vals = _flip_flops(model)
    # indexed (system, bath) for rows and for columns
    h = np.zeros((2, diag.size, 2, diag.size), dtype=complex)
    for s in (0, 1):
        h[s, rows, s, cols] = vals
        h[s, np.arange(diag.size), s, np.arange(diag.size)] = diag
    return h.reshape(2 * diag.size, -1)


def build_h_free(model, sectors=None):
    """Free Hamiltonian H_SE + H_E, filled from the basis bits.

    Given `sectors`, the bath-magnetization sectors of _sectors(model.n_bath),
    it returns the list of its complex diagonal blocks on them, and no dense
    matrix is formed. Without, it returns the dense 2**(n_bath + 1) matrix,
    scattered from the same blocks.
    """
    dense = sectors is None
    if dense:
        sectors = _sectors(model.n_bath)
    diag, rows, cols, vals = _flip_flops(model)
    n = diag.size
    # the system spin is the top bit, and H_E acts alike on both its halves
    blocks = _diagonal_blocks(
        (_h_se_diagonal(model) + np.tile(diag, 2)).astype(complex),
        np.concatenate((rows, rows + n)), np.concatenate((cols, cols + n)),
        np.tile(vals, 2), sectors)
    if not dense:
        return blocks
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    for idx, block in zip(sectors, blocks):
        h[np.ix_(idx, idx)] = block
    return h


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
        field = a[u] * np.eye(ops.dim, dtype=complex)
        for j in range(model.n_bath):
            if b_u[u, j] != 0.0:
                field = field + b_u[u, j] * ops.iz[j]
        if a[u] != 0.0 or np.any(b_u[u] != 0.0):
            h += s_u @ field
    return require_hermitian(h, "error Hamiltonian")
