"""Eigenphase series: powered survival overlaps and bath correlations.

It imports frame, never engine, which builds on it.

A static run's cycle product (engine module notes), built in the free
eigenframe (frame module notes), is powered through the eigenphases of
each block, from a Hermitian eigh (_unitary_eig). Time reversal makes
that eigh real for cpmg, cp and delta-pulse udd: in the frame S =
diag(exp(-i phi/2), exp(i phi/2)) (x) 1 of a paired run's pulse axis c =
exp(i phi) (_axis_frame) every free step and pulse is symmetric, so a
cycle whose segments read the same backwards is too, and a symmetric
unitary A + iB (A, B real symmetric, commuting) has a real orthogonal
eigenbasis; cpmg2, finite-pulse udd and unpaired runs stay complex. Under
a spin flip Q the middle block, which commutes with Q, splits into its
Q = +1 and -1 halves (_parity_blocks).

These powers and the bath correlations are one eigenbasis sum, Re sum_ab
W_ab exp(i (f_a - f_b) t) with W = |V^dag A V|^2, which _weighted forms
and _autocorrelation evaluates with no weight dropped (_spectral_series).
"""

import numpy as np

from .frame import _axis_frame, _flip, _frame_observable
from .hamiltonians import _basis_z, _h_e_blocks, _mirror_sectors

# _unitary_eig: the generic phase of its Hermitian part, the gap below
# which eigenvalues form one cluster and get no first-order correction,
# and the largest off-diagonal residual it accepts
_EIG_PHASE = 0.5 * (np.sqrt(5.0) - 1.0)
_EIG_CLUSTER_GAP = 1e-6
_EIG_RESIDUAL_MAX = 1e-13


def _unitary_eig(u):
    """(theta, P) with U = P diag(exp(i theta)) P^dag and P unitary, for one
    unitary block U, or None when the basis found leaves an off-diagonal
    residual max|P^dag U P - diag| above _EIG_RESIDUAL_MAX.

    The eigenvectors of the Hermitian part at the generic phase _EIG_PHASE
    diagonalize U except within clusters of near-equal cos(theta - phase):
    eigenphase pairs mirrored about the phase, and eigenphases near the
    phase or opposite it, where cos is flat. Each cluster is diagonalized
    again through its Hermitian part at the phase + pi/2. One first-order
    correction X_ij = D_ij / (lambda_j - lambda_i) over the gaps above
    _EIG_CLUSTER_GAP, with D = P^dag U P, and one Newton-Schulz step
    P(3 - P^dag P)/2 back to a unitary P then bring the residual to
    roundoff.

    A U symmetric within _EIG_RESIDUAL_MAX has a real orthogonal eigenbasis
    (module notes), found from real Hermitian parts with a real X and P. A U
    diagonal within that bound, such as a pulseless cycle in the free
    eigenframe, is its own eigenbasis: (angle(diag U), 1), with no eigh.
    """
    off = np.abs(u)
    np.fill_diagonal(off, 0.0)
    if np.max(off) <= _EIG_RESIDUAL_MAX:
        return np.angle(np.diag(u)), np.eye(len(u))
    real = np.max(np.abs(u - u.T)) <= _EIG_RESIDUAL_MAX
    w, p = np.linalg.eigh(_hermitian_part(u, _EIG_PHASE, real))
    d = _sandwich(p, u, p)
    edges = np.flatnonzero(np.diff(w) > _EIG_CLUSTER_GAP) + 1
    if edges.size + 1 < w.size:
        for lo, hi in zip([0, *edges], [*edges, w.size]):
            if hi - lo > 1:
                _, q = np.linalg.eigh(
                    _hermitian_part(d[lo:hi, lo:hi], _EIG_PHASE + 0.5 * np.pi, real))
                p[:, lo:hi] = p[:, lo:hi] @ q
        d = _sandwich(p, u, p)
    lam = np.diag(d)
    gap = lam[None, :] - lam[:, None]
    far = np.abs(gap) > _EIG_CLUSTER_GAP
    p = p + p @ (np.real if real else np.asarray)(np.where(far, d, 0.0) / np.where(far, gap, 1.0))
    p = p @ (1.5 * np.eye(w.size) - 0.5 * (p.conj().T @ p))
    d = _sandwich(p, u, p)
    theta = np.angle(np.diag(d))
    np.fill_diagonal(d, 0.0)
    if np.max(np.abs(d)) > _EIG_RESIDUAL_MAX:
        return None
    return theta, p


def _hermitian_part(u, phase, real=False):
    """(exp(-i phase) U + h.c.) / 2, whose eigenvalues are cos(theta - phase)
    for the eigenphases theta of a unitary U, or its real part."""
    h = np.exp(-1j * phase) * u
    h = 0.5 * (h + h.conj().T)
    return h.real if real else h


def _real_left(v, a):
    """V A for a real V and a complex A, or stacks of them: a real product on
    the (re, im) pairs of A's rows, at half the flops of a complex one."""
    return (v @ np.ascontiguousarray(a).view(float)).view(complex)


def _sandwich(v, a, u):
    """V^dag A U, or a stack of them; for real V, U and a complex A, real products
    (_real_left) on A's rows and then on (V^T A)^T's."""
    if np.iscomplexobj(v) or np.iscomplexobj(u) or not np.iscomplexobj(a):
        return v.conj().swapaxes(-1, -2) @ a @ u
    # (V^T A)^T made contiguous at once, so that V^T A is not kept beside it
    atv = np.ascontiguousarray(_real_left(v.swapaxes(-1, -2), a).swapaxes(-1, -2))
    return _real_left(u.swapaxes(-1, -2), atv).swapaxes(-1, -2)


def _parity_blocks(x, c, k):
    """(X_++, X_--, X_+-, X_-+) of a middle-sector block X = [[A, B], [C, D]]
    in system halves, on the eigenvectors P_a = (1, a c K^T) / sqrt 2 of its
    spin flip Q = [[0, conj(c) K], [c K^T, 0]] (_flip_phase, _Layout.reversal),
    a = +1 or -1: X_ab = P_a^dag X P_b = (A + b c B K^T + a conj(c) K C
    + a b K D K^T) / 2, in real products with the real K."""
    n = len(x) // 2
    # the four terms halved, combined in place to keep few (C, C) temporaries
    a, kdk = 0.5 * x[:n, :n], _sandwich(k.T, x[n:, n:], k.T)
    bk, kc = _real_left(k, x[:n, n:].T).T, _real_left(k, x[n:, :n])
    kdk *= 0.5
    bk *= 0.5 * c
    kc *= 0.5 * np.conj(c)
    even, odd = a + kdk, np.subtract(a, kdk, out=kdk)
    plus, minus = bk + kc, np.subtract(bk, kc, out=bk)
    return even + plus, np.subtract(even, plus, out=even), odd - minus, np.add(odd, minus, out=odd)


def _powered_overlaps(u_cycle, s_u, n_cycles, layout, c):
    """Survival overlaps after 0..n_cycles applications of one propagator,
    given as the sector blocks of a layout in the frame (_Layout,
    _interval_products) under the spin flip of phase c (None for none), or
    None when a block has no accurate unitary eigenbasis (see
    _unitary_eig).

    With U = P diag(exp(i theta)) P^dag per block, the m-fold conjugation
    of the deviation S_u (x) 1 collapses to phase powers of theta; s(m) is
    then the deviation autocorrelation of _autocorrelation at cycle count m,
    with frequencies -theta. Only the eigenphases enter, so |lambda| is 1
    exactly and roundoff does not drift over long runs. The frame V is real
    orthogonal, so the observable enters as V^T (S_u (x) 1) V
    (_frame_observable), and a pulseless cycle is diagonal there.

    Under a spin flip Q, sector n - k reads the mirrored S_u' = q S_u q with
    q = u . sigma, so a kept pair adds the autocorrelations of S_u and S_u'
    in sector k: twice those of the parts of S_u even and odd under the
    flip, turned with the pair block into the pulse-axis frame (_axis_frame).
    The middle block commutes with Q and is diagonalized as its two parity
    halves; the off-parity part of S_u enters as their cross block, twice
    for its transpose. An off-parity residual of the cycle block above
    _EIG_RESIDUAL_MAX returns None.
    """
    parts = [s_u]
    if c is not None:
        q = _flip(c)
        halves = [0.5 * (s_u + q @ s_u @ q), 0.5 * (s_u - q @ s_u @ q)]
        parts = [_axis_frame(p, c) for p in halves if p.any()]
        # the middle sector's parity blocks of S_u that are not zero: the
        # even part gives the diagonal ones, the odd part the cross one (in
        # the frame they are rounding where the part is zero)
        middle = [halves[0].any()] * 2 + [halves[1].any()]

    def frequencies(u):
        eig = _unitary_eig(u)
        return None if eig is None else (-eig[0], eig[1])

    blocks = []
    for u, m, (_, _, mix) in zip(u_cycle, layout.weights, layout.eigs):
        if c is None or m == 2:
            eig = frequencies(u if c is None else _axis_frame(u, c))
            if eig is None:
                return None
            blocks.append((eig, eig, [_frame_observable(p, mix) for p in parts], m))
            continue
        u_pp, u_mm, *off = _parity_blocks(u, c, layout.reversal)
        if max(np.max(np.abs(x)) for x in off) > _EIG_RESIDUAL_MAX:
            return None
        plus, minus = frequencies(u_pp), frequencies(u_mm)
        if plus is None or minus is None:
            return None
        a_pp, a_mm, a_pm, _ = _parity_blocks(_frame_observable(s_u, mix), c, layout.reversal)
        blocks += [b for b, keep in zip(((plus, plus, [a_pp], 1), (minus, minus, [a_mm], 1),
                                         (plus, minus, [a_pm], 2)), middle) if keep]
    return np.concatenate(([1.0], _autocorrelation(_weighted(blocks), np.arange(1, n_cycles + 1))))


def _spectral_series(weights, e, g):
    """Re sum_ab W_ab exp(i (f_a - g_b) t) for each column t of the phase tables
    E = exp(-i f t) and G = exp(-i g t), as Re sum_a conj(E_a) (W G)_a in real
    products on their (re, im) pairs, W being real."""
    wg = weights @ g.view(float)
    return np.einsum("at,at->t", e.view(float), wg).reshape(-1, 2).sum(1)


def _weighted(blocks):
    """(f, g, W) of each block ((f, V), (g, U), observables, m): the
    eigenpairs of the evolution on two invariant subspaces (one twice for a
    diagonal block), the block of each Hermitian A_j between them, or its
    diagonal, and the number of times m the block counts; the weights W =
    m sum_j |V^dag A_j U|^2 do not depend on the times."""
    return [(f, g, m * sum(np.abs(_sandwich(v, a, u) if a.ndim == 2 else (v.conj().T * a) @ u)
                           ** 2 for a in obs)) for (f, v), (g, u), obs, m in blocks]


def _autocorrelation(weighted, times):
    """sum_j Tr{A_j(0) A_j(t)} / sum_j Tr{A_j A_j} for every t of `times`.

    The weights W of every block (_weighted) go through _spectral_series;
    the series are summed and divided by the total weight. For A_j of equal
    norm, such as the I_z^j, this is the mean of their normalized curves.

    Integer `times` that step by 1, such as cycle counts or model_tau_b's
    grid counts, build each phase table exp(-i f t) from products: its first
    column by exp, then the columns t + n from those before times
    exp(-i f n), doubling n.
    """
    counts = np.issubdtype(np.asarray(times).dtype, np.integer) and np.all(np.diff(times) == 1)
    times = np.asarray(times, dtype=float)
    series = np.zeros(times.size)
    # chunks of at least 256 times keep memory O(dim max(dim, 256)); each
    # frequency array's phase table is built once per chunk (parity halves and
    # bath blocks share theirs) and dropped after the last block reading it
    step = max(256, *(n for _, _, w in weighted for n in w.shape))
    last = {id(a): i for i, (f, g, _) in enumerate(weighted) for a in (f, g)}
    for start in range(0, times.size, step):
        chunk, tables = times[start:start + step], {}
        for i, (f, g, w) in enumerate(weighted):
            for key, a in {id(f): f, id(g): g}.items():
                if key not in tables and not counts:
                    tables[key] = np.exp(-1j * np.outer(a, chunk))
                elif key not in tables:
                    table = tables[key] = np.empty((a.size, chunk.size), dtype=complex)
                    table[:, 0], n = np.exp(-1j * a * chunk[0]), 1
                    while n < chunk.size:
                        k = min(n, chunk.size - n)
                        np.multiply(table[:, :k], np.exp(-1j * n * a)[:, None],
                                    out=table[:, n:n + k])
                        n += k
            series[start:start + step] += _spectral_series(w, tables[id(f)], tables[id(g)])
            tables = {key: table for key, table in tables.items() if last[key] > i}
    return series / sum(w.sum() for _, _, w in weighted)


def _bath_blocks(model, spins):
    """The weighted _autocorrelation blocks (_weighted) under H_E of the
    I_z^j of `spins` by their diagonals, or of sum_j I_x^j when spins is
    None: its (k, k + 1) blocks only, as their transposes add the conjugate
    series.

    Flipping every bath spin leaves H_E and sum_j I_x^j alone and turns each
    I_z^j over, and it maps sector k onto sector n - k with its states
    reversed. So only the _mirror_sectors are diagonalized, one eigh each;
    a mirrored pair's blocks count twice, and the eigenvectors of sector
    n - k are those of sector k with their rows reversed.
    """
    n = model.n_bath
    sectors, h_e = zip(*_h_e_blocks(model))
    kept = _mirror_sectors(n)
    eigs = {k: np.linalg.eigh(h_e[k]) for k, _ in kept}
    if spins is None:
        def eig(k):
            w, v = eigs[min(k, n - k)]
            return (w, v) if 2 * k <= n else (w, v[::-1])
        # (k, k + 1) mirrors onto (n - k - 1, n - k)
        return _weighted([(eig(k), eig(k + 1),
                           [0.5 * (np.bitwise_count(sectors[k][:, None] ^ sectors[k + 1]) == 1)],
                           2 if 2 * k + 1 < n else 1) for k in range((n + 1) // 2)])
    z = _basis_z(n)[list(spins)]
    return _weighted([(eigs[k], eigs[k], list(z[:, sectors[k]]), m) for k, m in kept])
