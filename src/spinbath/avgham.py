"""Average Hamiltonian theory: toggling frames, leading Magnus terms, claims.

For a delta-pulse cycle the free evolution between pulses is rotated into
the frame of the preceding ideal pulses, H_k = P_k^dag H_free P_k, and the
leading terms over one cycle are

    H0 = (1/tau_c) sum_k H_k dt_k
    H1 = (-i / 2 tau_c) sum_{k<l} [H_l dt_l, H_k dt_k]   (k earlier in time).

Pulse errors are handled through the exact factorization real = error x
ideal: the instantaneous error rotation that follows pulse i is absorbed
into the next free segment as an extra static term (its integrated action
divided by the segment length), which leaves H0 identical to the kick
picture. The frames and kicks act on the system spin alone, so one walk
over the cycle reduces them to 2x2 coefficients of the system quadrants of
H_free, and each sector block is then folded from a few quadrant products
(_sector_averages). A small registry of closed-form claims about these
terms is checked numerically by verify_claim. The claims and the avgham
command subtract 1 (x) H_E per block and report root-sum-square norms over
the blocks, so no full-space matrix is formed.

magnus_defect builds only the _mirror_sectors k <= n - k when a spin flip
maps its sector k onto sector n - k (_defect_flip), as it does for pdd,
cdd, cpmg and udd defects of H_free, and every sector otherwise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .frame import (_axis_frame, _flip, _free_eigensystems, _halves, _interval_products,
                    _operators)
from .errors import ContractError
from .hamiltonians import (_basis_z, _coupling_blocks, _h_e_sectors, _sector_blocks, _sectors,
                           build_h_free, default_model)
from .operators import (_SPIN_HALF, UNITARY_ATOL, _checked_n_bath, _hermitian_moduli,
                        exp_propagator, require_hermitian)
from .pulses import ErrorModel, _left, delta_rotation, error_factor, ideal_frame
from .sequences import compile_cpmg, compile_pdd
from .spectral import _sandwich, _unitary_eig

CLAIM_TOL = 1e-10
# claim residuals below this sit at round-off and are printed as the bound
ROUNDOFF_RESIDUAL = 1e-13


@dataclass(frozen=True, eq=False)
class ToggledSegment:
    """One free period in the toggling frame: positive duration, frame
    Hamiltonian including any absorbed pulse-error action."""

    duration: float
    h_tilde: np.ndarray

    def __post_init__(self):
        if self.duration <= 0:
            raise ContractError(f"segment duration must be > 0, got {self.duration}")
        object.__setattr__(self, "h_tilde", np.asarray(self.h_tilde, dtype=complex))


def rotation_generator(u):
    """Hermitian G = P diag(-theta) P^dag with u = exp(-i G), principal branch
    per eigenphase, from spectral._unitary_eig of a u unitary within UNITARY_ATOL."""
    u = np.asarray(u, dtype=complex)
    eig = _unitary_eig(u)
    if eig is None or np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) > UNITARY_ATOL:
        raise ContractError("rotation_generator needs a unitary u with an accurate eigenbasis")
    theta, p = eig
    return (p * -theta) @ p.conj().T


def _cycle_coefficients(timeline, error_model=None):
    """Durations dts, a list of K floats, and 2x2 coefficients c, shape (K, 5, 2, 2),
    of the K free segments of one delta-pulse cycle, from one walk.

    A Hamiltonian written by system quadrants, H = sum_st E_st (x) Q_st,
    toggles in segment k to the area sum_a c[k, a] (x) Q_a over the basis
    (Q_00, Q_01, Q_10, Q_11, 1_bath): c[k, st] = dt_k F_k^dag E_st F_k with
    F_k the ideal frame, and c[k, 4] the pulse-error kicks absorbed into the
    segment. Without an error_model the pulses are ideal; with one, the
    error rotation following each pulse is toggled with the frame that
    includes that pulse (rf_scale fixed at 1, so only the deterministic
    flip-angle and tilt errors enter). A trailing error with no following
    free period cannot be represented this way and raises ContractError.
    """
    dts, frames, kicks = [], [], []
    frame = np.eye(2, dtype=complex)
    pending = np.zeros((2, 2), dtype=complex)
    for kind, payload in timeline.segments():
        if kind == "free":
            dts.append(payload)
            frames.append(frame)
            kicks.append(pending)
            pending = np.zeros((2, 2), dtype=complex)
            continue
        if payload.duration != 0.0:
            raise ContractError(
                "toggling frames need delta pulses; finite-width pulses are "
                "handled through their error factors"
            )
        frame = delta_rotation(payload.axis, payload.nominal_angle) @ frame
        if error_model is not None:
            g = rotation_generator(error_factor(payload, 1.0, error_model))
            pending = pending + frame.conj().T @ g @ frame
    if float(np.max(np.abs(pending))) > 1e-15:
        raise ContractError(
            "a trailing pulse-error rotation has no following free period to absorb it"
        )
    total = sum(dts)
    if abs(total - timeline.cycle_time) > 1e-9 * max(1.0, timeline.cycle_time):
        raise ContractError(
            f"segment durations sum to {total}, expected tau_c={timeline.cycle_time}"
        )
    f = np.array(frames)
    # (F^dag E_st F)_ij = conj(F_si) F_tj
    c = np.einsum("k,ksi,ktj->kstij", dts, f.conj(), f).reshape(-1, 4, 2, 2)
    return dts, np.concatenate((c, np.array(kicks)[:, None]), axis=1)


def _quadrants(h):
    """The system quadrants (Q_00, Q_01, Q_10, Q_11) of h, shape (4, m, m):
    the system spin is the top bit, so h = sum_st E_st (x) Q_st."""
    m = len(h) // 2
    return h.reshape(2, m, 2, m).swapaxes(1, 2).reshape(4, m, m)


def _assembled(coef, mats, ident):
    """sum_n coef[n] (x) mats[n] + ident (x) 1 as a system-major matrix, from
    one (4, n) @ (n, m^2) product; coef has shape (n, 2, 2)."""
    n, m = len(mats), mats.shape[-1]
    out = (coef.reshape(n, 4).T @ mats.reshape(n, m * m)).reshape(2, 2, m * m)
    out[:, :, :: m + 1] += ident[:, :, None]
    return out.reshape(2, 2, m, m).swapaxes(1, 2).reshape(2 * m, 2 * m)


def toggling_frames(timeline, h_free, error_model=None):
    """Toggling-frame segments of one delta-pulse cycle.

    Returns a list of ToggledSegment whose durations sum to tau_c, built
    from the 2x2 coefficients of _cycle_coefficients, which also describes
    the error_model and the ContractErrors. h_free may be the full space or
    a sector block: its top bit is the system spin.
    """
    h_free = require_hermitian(h_free, "free Hamiltonian")
    dts, c = _cycle_coefficients(timeline, error_model)
    quads = _quadrants(h_free)
    return [ToggledSegment(t, _assembled(ck[:4], quads, ck[4]) / t) for t, ck in zip(dts, c)]


def average_hamiltonian(segments):
    """Leading Magnus terms (H0, H1) of one cycle from one walk over the segments.

    H0 is the duration-weighted mean of the frame Hamiltonians, the running
    area sum over tau_c; H1 is the antisymmetrized commutator sum, which
    vanishes whenever all segments commute and flips sign under time
    reversal of the cycle.
    """
    if not segments:
        raise ContractError("need at least one toggled segment")
    tau_c = sum(s.duration for s in segments)
    acc, running = np.zeros_like(segments[0].h_tilde), np.zeros_like(segments[0].h_tilde)
    for s in segments:
        area = s.h_tilde * s.duration
        acc += area @ running - running @ area
        running += area
    return running / tau_c, acc * (-1j / (2.0 * tau_c))


def _fold(h, tau_c, r, d):
    """(H0, H1) of one block h from the cycle sums of _sector_averages.

    With the areas A_k = sum_a c[k, a] (x) Q_a, tau_c H0 = sum_a r[a] (x) Q_a
    and the commutator sum is sum_ab d[a, b] (x) Q_a Q_b, so a block costs at
    most 16 quadrant products whatever the number of segments.
    """
    quads = _quadrants(h)
    # quadrants that are exactly zero drop out; H_free conserves the system
    # S_z, so its off-diagonal pair always does
    live = [a for a in range(4) if quads[a].any()]
    q = quads[live]
    n = len(live)
    h0 = _assembled(r[live], q, r[4]) / tau_c
    # Q_a 1 = 1 Q_a = Q_a, so the kick rows and columns fold onto Q_a itself
    coef = np.concatenate((d[np.ix_(live, live)].reshape(n * n, 2, 2),
                           d[live, 4] + d[4, live]))
    mats = np.concatenate(((q[:, None] @ q[None, :]).reshape(n * n, *q.shape[1:]), q))
    return h0, _assembled(coef, mats, d[4, 4]) * (-1j / (2.0 * tau_c))


def _sector_averages(timeline, blocks, error_model=None):
    """(H0, H1) of one cycle for each sector block of a Hamiltonian, yielded
    in turn: one walk over the cycle gives r = sum_k c[k] and
    d[a, b] = sum_{k<l} (c[l, a] c[k, b] - c[k, a] c[l, b]) from the 2x2
    coefficients c of _cycle_coefficients, and _fold builds each block from
    them. The blocks are not checked for Hermiticity here."""
    dts, c = _cycle_coefficients(timeline, error_model)
    # earlier[l] = sum_{k<l} c[k]
    earlier = np.concatenate((np.zeros_like(c[:1]), np.cumsum(c[:-1], axis=0)))
    d = (np.einsum("lasi,lbij->absj", c, earlier)
         - np.einsum("lasi,lbij->absj", earlier, c))
    r, tau_c = c.sum(axis=0), sum(dts)
    for h in blocks:
        yield _fold(h, tau_c, r, d)


def _norm(blocks):
    """Frobenius norm of the block-diagonal matrix with these blocks."""
    return float(np.linalg.norm([np.linalg.norm(b) for b in blocks]))


def _component_table(blocks, n_bath):
    """Coefficients of H, given as its list of blocks on _sectors(n_bath), on
    the orthogonal basis {S_u, S_u I_z^j}, plus the Frobenius norm of what is
    left over. The coefficients come from the diagonals of the four system
    quadrants of each block; the rest is subtracted block by block, where
    ||H||^2 - sum |c|^2 ||op||^2 would cancel at round-off."""
    sectors, z = _sectors(n_bath), _basis_z(n_bath + 1)[1:]
    spin = np.stack([_SPIN_HALF[u] for u in "xyz"])
    overlaps = 0.0
    for idx, h in zip(sectors, blocks):
        m = idx.size // 2
        quadrants = np.diagonal(h.reshape(2, m, 2, m), axis1=1, axis2=3)
        weights = np.vstack((np.ones(m), z[:, idx[:m]]))
        overlaps = overlaps + np.einsum("ust,stb,jb->uj", spin.conj(), quadrants, weights)
    # Tr(S_u^2) = dim / 4 and Tr((S_u I_z^j)^2) = dim / 16
    c = overlaps / (2.0 ** (n_bath + 1) / np.array([4.0] + [16.0] * n_bath))
    comps = {f"s{u}" + (f".iz{j - 1}" if j else ""): complex(c[i, j])
             for i, u in enumerate("xyz") for j in range(n_bath + 1)}
    fitted = _coupling_blocks(c[:, 0], c[:, 1:], n_bath, sectors)
    return comps, _norm(map(np.subtract, blocks, fitted))


def _cycle_norms(timeline, model, error_model=None):
    """Frobenius norms of H0, H1, H0 - 1 (x) H_E and H_free over one cycle
    of `timeline`, toggled per sector block and summed in quadrature."""
    h_free = build_h_free(model, _sectors(model.n_bath))
    # map, unlike a loop, holds no block of the previous sector
    norms = map(lambda t, h_e: [np.linalg.norm(a) for a in (*t, t[0] - h_e)],
                _sector_averages(timeline, h_free, error_model), _h_e_sectors(model))
    h0, h1, rest = np.linalg.norm(list(norms), axis=0)
    return {"h0_norm": float(h0), "h1_norm": float(h1), "h0_minus_bath_norm": float(rest),
            "h_free_norm": _norm(h_free)}


def _flip_angle_error(params):
    eps = params.get("flip_angle_fraction", 0.05)
    if eps == 0:
        raise ContractError("flip_angle_fraction must be nonzero: the flip-angle claims "
                            "measure their residual relative to it")
    return eps, ErrorModel(flip_angle_fraction=eps)


def _claim_cpmg_flip_angle(params):
    """Plain two-pulse train with flip-angle error: the zeroth-order average
    Hamiltonian is a pure S_y field of strength 2 eps pi / tau_c."""
    tau = params.get("tau", 30.0)
    eps, err = _flip_angle_error(params)
    model = params.get("model") or default_model(
        seed=params.get("seed", 11), n_bath=params.get("n_bath", 2),
        b_scale=0.05, d_scale=0.05)
    tl = compile_cpmg(tau, 0.0)
    terms = _sector_averages(tl, build_h_free(model, _sectors(model.n_bath)), err)
    # the bath-internal term rides along untouched by system pulses; the
    # claim concerns everything the central spin can feel
    h0 = list(map(lambda t, h_e: t[0] - h_e, terms, _h_e_sectors(model)))
    comps, rest = _component_table(h0, model.n_bath)
    expected = 2.0 * eps * np.pi / tl.cycle_time
    got = comps["sy"].real
    off_axis = max(abs(comps["sx"]), abs(comps["sz"]))
    se_terms = max((abs(v) for k, v in comps.items() if ".iz" in k), default=0.0)
    residual = max(abs(got - expected), off_axis, se_terms, rest) / abs(expected)
    return {
        "claim": "cpmg-flip-angle-zeroth-order",
        "statement": "flip-angle error leaves a pure S_y zeroth-order field "
                     "of strength 2*eps*pi/tau_c on the plain two-pulse train",
        "norms": {"sy_coefficient": got, "expected": expected,
                  "off_axis_max": off_axis, "system_bath_max": se_terms,
                  "unmodeled_rest": rest},
        "residual": residual,
    }


def _claim_cpmg2_cancellation(params):
    """Alternating +y/-y pair: for hard pulses and vanishing delays the
    accumulated zeroth-order error generator cancels exactly."""
    eps, err = _flip_angle_error(params)
    n_bath = _checked_n_bath(params.get("n_bath", 1))
    # with H_free = 0 the toggled segments carry only the error kicks, so
    # tau_c H0 is their accumulated generator whatever the delays
    tl = compile_cpmg(1.0, 0.0, variant="cpmg2")
    zero = (np.zeros((idx.size, idx.size)) for idx in _sectors(n_bath))
    generator_sum = tl.cycle_time * _norm(h0 for h0, _ in _sector_averages(tl, zero, err))
    # |S_y| = sqrt(dim) / 2 on the full space
    ref = abs(eps) * np.pi * float(np.sqrt(2 ** (n_bath + 1))) / 2.0
    return {
        "claim": "cpmg2-error-sum-vanishes",
        "statement": "with hard pulses and vanishing delays the +y/-y pair "
                     "accumulates no zeroth-order error generator",
        "norms": {"generator_sum": generator_sum, "reference": ref},
        "residual": generator_sum / ref,
    }


def _claim_pdd_cancels_coupling(params):
    """Four-pulse block: the zeroth-order average of a general system-bath
    error Hamiltonian vanishes, leaving only the bath term."""
    tau = params.get("tau", 20.0)
    seed = params.get("seed", 5)
    model = params.get("model") or default_model(
        seed=seed, n_bath=params.get("n_bath", 3), b_scale=0.05, d_scale=0.05)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.05, 0.05, 3)
    b_u = rng.uniform(-0.05, 0.05, (3, model.n_bath))
    h_err = _coupling_blocks(a, b_u, model.n_bath, _sectors(model.n_bath))
    terms = _sector_averages(compile_pdd(tau, 0.0), map(np.add, _h_e_sectors(model), h_err))
    rest = _norm(map(lambda t, h_e: t[0] - h_e, terms, _h_e_sectors(model)))
    # |S_u|^2 = dim / 4 and |S_u I_z^j|^2 = dim / 16, all orthogonal
    ref = float(np.sqrt(2 ** (model.n_bath + 1) * (a @ a + np.sum(b_u**2) / 4.0) / 4.0))
    return {
        "claim": "pdd-cancels-system-bath-coupling",
        "statement": "the four-pulse block averages any S_u (a_u + sum_j "
                     "b_uj I_z^j) coupling to zero at leading order",
        "norms": {"h0_minus_bath": rest, "reference": ref},
        "residual": rest / ref,
    }


CLAIMS = {
    "cpmg-flip-angle-zeroth-order": _claim_cpmg_flip_angle,
    "cpmg2-error-sum-vanishes": _claim_cpmg2_cancellation,
    "pdd-cancels-system-bath-coupling": _claim_pdd_cancels_coupling,
}

CLAIM_IDS = tuple(CLAIMS)


def verify_claim(claim_id, params=None):
    """Check one registered closed-form claim numerically.

    Returns a JSON-friendly report with the relevant norms, the relative
    residual, the tolerance, and a boolean `pass`.
    """
    try:
        fn = CLAIMS[claim_id]
    except KeyError:
        raise ContractError(
            f"unknown claim {claim_id!r}; known claims: {', '.join(CLAIMS)}"
        ) from None
    report = fn(dict(params or {}))
    report["tolerance"] = CLAIM_TOL
    report["pass"] = bool(report["residual"] < CLAIM_TOL)
    return report


def residual_text(residual, spec):
    """'residual=<value>' with format `spec`, or the bound
    'residual<1e-13' at round-off, whose digits depend on summation order."""
    if residual < ROUNDOFF_RESIDUAL:
        return f"residual<{ROUNDOFF_RESIDUAL:g}"
    return f"residual={residual:{spec}}"


def _defect_flip(events, h_blocks):
    """The phase c = u_x + i u_y, 1 or i, of a spin flip Q = (u . sigma) (x)
    J_bath, u = x or y, under which magnus_defect's sector n - k repeats
    sector k, or None.

    Q maps sector k onto sector n - k with its bath states reversed (frame
    module notes). So block n - k must be Q block k Q^dag exactly, h[::-1,
    ::-1] with its off-diagonal halves times conj(c)^2, and Q must turn
    every ideal pulse rotation R into +R or -R within 1e-15, as it does a pi
    pulse about x or y with u = x. The signs cancel between the cycle
    product and its frame, and the toggled H0 and H1 do not see them, so
    every term of sector n - k is Q times that of sector k times Q^dag.
    """
    n = len(h_blocks) - 1
    rotations = [delta_rotation(*pulse) for pulse in {(ev.axis, ev.nominal_angle) for ev in events}]
    for c in (1.0, 1j):
        q = _flip(c)
        if (all(min(np.max(np.abs(q @ r @ q - s * r)) for s in (1.0, -1.0)) <= 1e-15
                for r in rotations)
                and all(np.array_equal(h_blocks[n - k],
                                       _axis_frame(h_blocks[k][::-1, ::-1], np.conj(c) ** 2))
                        for k in range((n + 1) // 2))):
            return c
    return None


def _back(layout, us):
    """Sector blocks U in the frame of a layout (frame._Layout) turned out of
    it, V U V^dag with V = diag(V_+, V_-)."""
    vs = [v.conj().swapaxes(1, 2) for _, v, _ in layout.eigs]
    return [_sandwich(v[:, None], u.reshape(2, len(v[0]), 2, -1).swapaxes(1, 2), v[None])
            .swapaxes(1, 2).reshape(len(u), -1) for u, v in zip(us, vs)]


def magnus_defect(timeline, h_free, ops):
    """Norm of U_exact(tau_c) - exp(-i (H0 + H1) tau_c) for one cycle.

    Scales as the cube of the coupling strength, which is the standard
    convergence diagnostic for the truncated expansion. U_exact is the
    engine's cycle product; both propagators are built per bath-magnetization
    sector, and its free steps per system S_z half of each sector, so h_free
    must conserve the total bath I_z and the system S_z, as H_SE + H_E does.

    When a spin flip Q = (u . sigma) (x) J_bath, u = x or y, maps every
    block of sector k onto that of sector n - k and every ideal pulse onto
    itself up to a sign (_defect_flip), as for H_free under pdd, cdd, cpmg
    and udd, sector n - k has the same defect norm as sector k. Then only
    the _mirror_sectors are built, in the paired layout of propagate
    (_Layout), and the squared norm of each pair counts twice; any other
    input builds every sector.
    """
    if any(ev.duration > 0 for ev in timeline.events):
        raise ContractError("magnus_defect needs delta pulses, got a finite-width pulse")
    h_free, a = _hermitian_moduli(np.asarray(h_free, dtype=complex), "free Hamiltonian")
    tol = 1e-12 * max(1.0, float(np.max(a)))
    # basis states of one bath sector and one system half, by their bits
    z = _basis_z(ops.n_bath + 1)
    up = np.sum(z[1:] > 0, axis=0)
    label = up + (ops.n_bath + 1) * (z[0] < 0)
    outside = float(np.max(a, where=label[:, None] != label, initial=0.0))
    if outside > tol:
        off = float(np.max(a, where=up[:, None] != up, initial=0.0))
        raise ContractError(
            f"h_free couples bath-magnetization sectors (max off-sector entry {off:.3e})"
            if off > tol else
            f"h_free couples the system spin's up and down halves (max entry {outside:.3e})")
    sectors = _sectors(ops.n_bath)
    h_blocks = _sector_blocks(h_free, sectors)
    # error-free pulses at unit RF scale are exactly the ideal rotations
    pieces = timeline.segments()
    # keyed on the blocks' halves, so a second defect of one h_free diagonalizes
    # nothing and the frame cache keeps no off-diagonal or imaginary zeros
    layout = _free_eigensystems(h_blocks, [_halves(h) for h in h_blocks],
                                _defect_flip(timeline.events, h_blocks) is not None)
    phases = layout.phases({dt for kind, dt in pieces if kind == "free"})
    operators = _operators(timeline.events, layout, ErrorModel(), 1.0)([pieces])
    u_exact = _back(layout, _interval_products([pieces], operators, layout, phases)[0])
    # the frames rotate the system spin alone, so each sector block is toggled alone
    frame, tau_c = ideal_frame(timeline.events).conj().T, timeline.cycle_time
    terms = _sector_averages(timeline, [h_blocks[k] for k in layout.sectors])
    return float(np.linalg.norm([
        np.linalg.norm(_left(frame, u) - exp_propagator(h0 + h1, tau_c)) * math.sqrt(m)
        for (h0, h1), u, m in zip(terms, u_exact, layout.weights)]))
