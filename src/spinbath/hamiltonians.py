"""Rotating-frame Hamiltonians for one central spin coupled to a spin bath.

The central spin sees a pure-dephasing (Ising) hyperfine-like coupling to
each bath spin, while the bath evolves under a secular dipolar interaction
that exchanges polarization through flip-flops but conserves total I_z.
There is no system-only term: on resonance the qubit Hamiltonian vanishes
and everything of interest sits in the couplings. Couplings are angular
frequencies in rad/us and times are in us throughout.

Every piece is filled from the bits of the basis index, one block per
bath-magnetization sector (_sectors), with no dense spin operator.
_flip_flops is the one H_E kernel, on the bath space alone; _h_e_blocks
places it into one C(n, k)-wide block per sector, and build_h_free puts each
block on both system halves of a complex block and adds the H_SE diagonal.
_coupling_blocks fills the error-term blocks avgham reads. The dense
build_h_free(model) and build_h_e are scattered from the same blocks.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .operators import _SPIN_HALF, OperatorSet, _checked_n_bath, build_operator_set
from .util import KHZ_TO_RAD_PER_US, require_int

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
    """Immutable bundle of couplings plus the matching sizes.

    Attributes
    ----------
    n_bath : int
        Number of bath spins.
    b : ndarray, shape (n_bath,)
        System-bath Ising couplings b_j in rad/us.
    d : ndarray, shape (n_bath, n_bath)
        Symmetric intra-bath dipolar couplings with zero diagonal, rad/us.
    ops : OperatorSet
        n_bath and the full-space dimension.
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
        # written so that NaN fails the bound
        if not (0 <= self.b_scale < np.inf and 0 <= self.d_scale < np.inf):
            raise ContractError("coupling scales must be finite and >= 0")
        if require_int(self.seed, "coupling seed") < 0:
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


@functools.cache
def _basis_z(n_sites):
    """S_z eigenvalues of every site on the product basis, shape (n_sites, 2**n_sites),
    computed once per n_sites and read-only.

    Site 0 is the system spin and site j + 1 bath spin j; site q is bit
    n_sites - 1 - q of the basis index, and bit 0 means spin up (+1/2).
    """
    shifts = np.arange(n_sites - 1, -1, -1)
    return _read_only(0.5 - ((np.arange(2**n_sites) >> shifts[:, None]) & 1))


@functools.cache
def _sectors(n_bath):
    """Basis indices of the bath-magnetization sectors, k = 0 .. n_bath
    bath spins up, as a tuple of ascending read-only arrays, computed once
    per n_bath.

    H_free, every pulse and the prepared state conserve the total bath
    I_z, so they are block-diagonal in these sectors. Sector k is
    C^2 (x) span{bath states with k up}, of size 2 C(n_bath, k); the system
    spin is the top bit, so it stays a tensor factor of every block.
    """
    up = np.sum(_basis_z(n_bath + 1)[1:] > 0, axis=0)
    return tuple(_read_only(np.flatnonzero(up == k)) for k in range(n_bath + 1))


@functools.cache
def _layout(n_bath):
    """Where the H_E sector blocks take their entries, computed once per
    n_bath and read-only: the pairs (i, j), i < j, in np.triu_indices order,
    2 z_i z_j of each pair on every bath state (_basis_z), shape
    (pairs, 2**n_bath), and per bath sector k (k bath spins up) its ascending
    bath states and the in-block (rows, columns) of its flip-flop entries,
    between states that differ by swapping opposite spins i and j, with the
    index of their pair. The diagonal entries sit on the block diagonal.
    """
    z = _basis_z(n_bath)
    i, j = np.triu_indices(n_bath, 1)
    pair, cols = np.nonzero(z[i] != z[j])
    rows = cols ^ ((1 << (n_bath - 1 - i)) | (1 << (n_bath - 1 - j)))[pair]
    up = n_bath - np.bitwise_count(np.arange(2**n_bath))
    pos = np.empty(2**n_bath, dtype=int)
    sectors = []
    for k in range(n_bath + 1):
        states = np.flatnonzero(up == k)
        pos[states] = np.arange(states.size)
        mine = up[cols] == k
        sectors.append(tuple(map(_read_only, (states, pos[rows[mine]], pos[cols[mine]],
                                              pair[mine]))))
    return (_read_only(i), _read_only(j)), _read_only(2.0 * z[i] * z[j]), tuple(sectors)


def _read_only(a):
    a.setflags(write=False)
    return a


def _mirror_sectors(n_bath):
    """(k, multiplicity) of the sectors left when flipping every bath spin is
    a symmetry: the flip maps sector k onto sector n_bath - k, with its
    ascending bath states reversed, so k < n_bath - k stands for both and the
    middle sector k = n_bath / 2 stands for itself."""
    return [(k, 2 if 2 * k < n_bath else 1) for k in range(n_bath // 2 + 1)]


def _sector_blocks(a, sectors):
    """The diagonal blocks of the full-space matrix `a` on `sectors`."""
    return [a[np.ix_(idx, idx)] for idx in sectors]


def _scattered(blocks, sectors):
    """The dense complex matrix with `blocks` on `sectors` and zeros off them."""
    dim = sum(idx.size for idx in sectors)
    h = np.zeros((dim, dim), dtype=complex)
    for idx, block in zip(sectors, blocks):
        h[np.ix_(idx, idx)] = block
    return h


def _h_se_diagonal(model):
    """The diagonal of H_SE = S_z * sum_j b_j I_z^j on the product basis, from
    the basis bits; H_SE has no other entries."""
    z = _basis_z(model.n_bath + 1)
    field = np.zeros(model.ops.dim)
    for j in range(model.n_bath):
        if model.b[j] != 0.0:
            field += model.b[j] * z[j + 1]
    return z[0] * field


def _flip_flops(model):
    """H_E on the 2**n_bath bath states from the basis bits (_layout): its
    diagonal (the Ising part) and the flip-flop entry -d_ij / 2 of every pair
    i < j."""
    (i, j), zz, _ = _layout(model.n_bath)
    dij = model.d[i, j]
    coupled = np.flatnonzero(dij)
    # summed over the coupled pairs in order, as a loop over i < j would
    diag = np.sum(dij[coupled, None] * zz[coupled], axis=0)
    # 0.0 - x is -x, and +0.0 for an uncoupled pair
    return diag, 0.0 - 0.5 * dij


def _h_e_blocks(model):
    """H_E on the bath space as (indices, block) per sector k = 0 .. n_bath:
    the ascending bath states with k spins up and their real block."""
    diag, vals = _flip_flops(model)
    blocks = []
    for states, rows, cols, pairs in _layout(model.n_bath)[2]:
        block = np.diag(diag[states])
        block[rows, cols] = vals[pairs]
        blocks.append((states, block))
    return blocks


def _h_e_sectors(model):
    """1_system (x) H_E on each sector of _sectors(model.n_bath), in turn."""
    # np.kron(np.eye(2), block), without np.kron's overhead on small blocks
    return (np.einsum("st,bc->sbtc", np.eye(2), block).reshape(2 * len(block), -1)
            for _, block in _h_e_blocks(model))


def build_h_e(model):
    """Secular dipolar bath Hamiltonian, 1_system (x) H_E, scattered from
    _h_e_sectors.

    sum_{i<j} d_ij [2 I_z^i I_z^j - (I_x^i I_x^j + I_y^i I_y^j)]; the
    flip-flop part exchanges polarization while conserving total I_z.
    """
    return _scattered(_h_e_sectors(model), _sectors(model.n_bath))


def build_h_free(model, sectors=None):
    """Free Hamiltonian H_SE + H_E, filled from the basis bits.

    Given `sectors`, the bath-magnetization sectors of _sectors(model.n_bath),
    it returns the list of its complex diagonal blocks on them, and no dense
    matrix is formed. Without, it returns the dense 2**(n_bath + 1) matrix,
    scattered from the same blocks.
    """
    h_se, blocks = _h_se_diagonal(model), []
    # the system spin is the top bit, and H_E acts alike on both its halves
    for (_, h_e), idx in zip(_h_e_blocks(model), _sectors(model.n_bath)):
        c = len(h_e)
        block = np.zeros((2 * c, 2 * c), dtype=complex)
        block[:c, :c] = block[c:, c:] = h_e
        block.flat[::2 * c + 1] += h_se[idx]
        blocks.append(block)
    return blocks if sectors is not None else _scattered(blocks, _sectors(model.n_bath))


def _coupling_blocks(a, b_u, n_bath, sectors):
    """sum_u S_u (x) diag(a_u + sum_j b_uj z_j) on each of `sectors` in turn,
    with z_j the I_z^j eigenvalue of each bath state of the sector
    (_basis_z); `a`, shape (3,), and `b_u`, shape (3, n_bath), may be
    complex."""
    z, spin = _basis_z(n_bath + 1)[1:], np.stack([_SPIN_HALF[u] for u in "xyz"])
    for idx in sectors:
        # the system spin is the top bit, so the first half of idx is the
        # sector's bath states with the system spin up
        m = idx.size // 2
        fields = a[:, None] + b_u @ z[:, idx[:m]]
        yield np.einsum("ust,ub,bc->sbtc", spin, fields, np.eye(m)).reshape(2 * m, 2 * m)
