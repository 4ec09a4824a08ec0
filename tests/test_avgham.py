"""Toggling frames, leading-order averages, and the claim registry."""

import math
import tracemalloc

import numpy as np
import pytest

import kron_oracle as oracle
import spinbath.avgham as avgham
import spinbath.frame as frame
from spinbath import (
    CLAIM_IDS,
    ContractError,
    ErrorModel,
    PulseEvent,
    Timeline,
    build_h_e,
    build_h_free,
    build_model,
    build_operator_set,
    compile_cdd,
    compile_cpmg,
    compile_pdd,
    default_model,
    ideal_pulse,
)
from spinbath.analysis import compile_family
from spinbath.cli import main
from spinbath.avgham import (
    average_hamiltonian,
    magnus_defect,
    rotation_generator,
    toggling_frames,
    verify_claim,
)
from spinbath.hamiltonians import _sector_blocks, _sectors
from spinbath.operators import evolve
from spinbath.pulses import delta_rotation


def small_model(seed=0, n_bath=3, scale=0.05):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-scale, scale, n_bath)
    iu = np.triu_indices(n_bath, 1)
    d = np.zeros((n_bath, n_bath))
    d[iu] = rng.uniform(-scale, scale, len(iu[0]))
    return build_model(b, d + d.T)


def test_toggling_frames_partition_the_cycle():
    m = small_model()
    tl = compile_pdd(12.0)
    segs = toggling_frames(tl, build_h_free(m))
    assert len(segs) == 4
    assert sum(s.duration for s in segs) == pytest.approx(tl.cycle_time)
    ref = np.linalg.eigvalsh(build_h_free(m))
    for s in segs:
        assert np.allclose(s.h_tilde, s.h_tilde.conj().T, atol=1e-12)
        # frame changes are unitary, so each toggled piece keeps the spectrum
        assert np.allclose(np.linalg.eigvalsh(s.h_tilde), ref, atol=1e-10)


def test_average_hamiltonian_orders():
    m = small_model(seed=1)
    # the four-pulse block is not time-symmetric, so its H1 does not vanish
    segs = toggling_frames(compile_pdd(10.0), build_h_free(m))
    h0, h1 = average_hamiltonian(segs)
    assert np.linalg.norm(h1) > 1e-3
    assert np.allclose(h0, h0.conj().T, atol=1e-12)
    assert np.allclose(h1, h1.conj().T, atol=1e-12)
    areas = [s.h_tilde * s.duration for s in segs]
    tau_c = sum(s.duration for s in segs)
    assert np.array_equal(h0, sum(areas) / tau_c)
    # (-i / 2 tau_c) sum_{k<l} [A_l, A_k], k earlier in time
    ref = sum(areas[l] @ areas[k] - areas[k] @ areas[l]
              for l in range(len(areas)) for k in range(l))
    assert np.max(np.abs(h1 - ref * (-1j / (2.0 * tau_c)))) < 1e-12
    with pytest.raises(ContractError):
        average_hamiltonian([])


def test_rotation_generator_inverts_evolve():
    m = small_model(seed=2, n_bath=2)
    h = 0.3 * build_h_free(m) / np.max(np.abs(np.linalg.eigvalsh(build_h_free(m))))
    g = rotation_generator(evolve(h, 1.0).matrix)
    assert np.max(np.abs(g - h)) < 1e-10


def test_rotation_generator_is_hermitian_and_exact():
    rng = np.random.default_rng(4)
    for dim in (2, 8, 16):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u = evolve(a + a.conj().T, 1.0).matrix
        g = rotation_generator(u)
        assert np.max(np.abs(g - g.conj().T)) < 1e-14
        w, v = np.linalg.eigh(g)
        assert np.max(np.abs((v * np.exp(-1j * w)) @ v.conj().T - u)) < 1e-13


@pytest.mark.parametrize("u", [np.diag([1.0, 2.0]), np.array([[1.0, 0.1], [0.0, 1.0]]),
                               1.001 * delta_rotation("x", 0.3)],
                         ids=["normal", "defective", "scaled-rotation"])
def test_rotation_generator_refuses_a_non_unitary(u):
    with pytest.raises(ContractError, match="unitary"):
        rotation_generator(u)


def _recorded_eighs(patch):
    """Patch np.linalg.eigh and avgham.exp_propagator so that they record,
    apart, the shapes of magnus_defect's frame eighs and of its
    exponentials; returns the two lists."""
    frames, exps, inside = [], [], []
    eigh, exp = np.linalg.eigh, avgham.exp_propagator

    def counted(a, *args, **kwargs):
        if not inside:
            frames.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def exponential(h, t):
        exps.append(np.shape(h))
        inside.append(h)
        try:
            return exp(h, t)
        finally:
            inside.pop()

    patch.setattr(np.linalg, "eigh", counted)
    patch.setattr(avgham, "exp_propagator", exponential)
    return frames, exps


def _exponentials(widths, split=True):
    """The shapes of magnus_defect's exponentials on sector blocks of these
    widths: both (C, C) system halves stacked, or the whole (2C, 2C) block."""
    return [(2, w // 2, w // 2) if split else (w, w) for w in widths]


def test_magnus_defect_stays_within_the_sector_blocks(monkeypatch):
    m = default_model(seed=37, n_bath=7)
    h = build_h_free(m)
    folded, fold = [], avgham._fold

    def recorded(block, *args, **kwargs):
        folded.append(np.shape(block)[-1])
        return fold(block, *args, **kwargs)

    frames, exps = _recorded_eighs(monkeypatch)
    monkeypatch.setattr(avgham, "_fold", recorded)
    for order in (1, 2):
        assert magnus_defect(compile_cdd(order, 5.0), h, m.ops) > 0
    # the frames and the exponentials diagonalize the system halves of the
    # sector blocks, at most C(7, 3) = 35 wide, never a block or the full space
    assert frames and exps and max(s[-1] for s in frames + exps) == 35
    assert exps == 2 * _exponentials([2, 14, 42, 70])
    # the averages are folded per sector block, never on the full space
    assert folded and max(folded) == 70


def test_magnus_defects_of_one_h_free_diagonalize_its_halves_once(monkeypatch):
    m = default_model(seed=37, n_bath=5)
    h = build_h_free(m)
    tl = compile_cdd(2, 5.0)
    frames, exps = _recorded_eighs(monkeypatch)
    first = magnus_defect(tl, h, m.ops)
    # one stacked eigh of both system halves per sector, C(5, k) wide
    halves = [(2, math.comb(5, k), math.comb(5, k)) for k in range(6)]
    assert frames == halves
    # and one stacked exponential of both halves per kept sector
    assert exps == halves[:3]
    del frames[:], exps[:]
    assert magnus_defect(tl, h.copy(), m.ops) == first
    assert exps == halves[:3] and frames == []
    # the cache keys its one entry on the real halves of the sector blocks,
    # and holds neither a full-space copy nor the complex blocks
    (key, *_), = frame._frames
    assert [a.shape for a in key] == halves
    assert all(a.dtype == np.float64 and a.base is None for a in key)


def test_magnus_defect_refuses_a_non_hermitian_hamiltonian():
    # the imaginary diagonal keeps every sector and the system S_z, so only
    # the Hermiticity check can refuse it
    m = small_model(seed=3)
    h = build_h_free(m) + 0.01j * np.diag(np.arange(m.ops.dim))
    with pytest.raises(ContractError, match="not Hermitian"):
        magnus_defect(compile_pdd(10.0), h, m.ops)


def test_magnus_defect_rejects_finite_pulses_before_building_them(monkeypatch):
    builds, build = [], frame._pulse_blocks

    def counted(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(frame, "_pulse_blocks", counted)
    m = default_model(n_bath=2)
    with pytest.raises(ContractError, match="delta pulses"):
        magnus_defect(compile_cdd(1, 5.0, 1.0), build_h_free(m), m.ops)
    assert builds == []


def test_magnus_defect_shrinks_cubically():
    ratios = []
    for seed in range(5):
        m = small_model(seed=seed)
        h = build_h_free(m)
        d_long = magnus_defect(compile_pdd(20.0), h, m.ops)
        d_short = magnus_defect(compile_pdd(10.0), h, m.ops)
        assert d_short < d_long
        ratios.append(d_long / d_short)
    # halving the delay should cut the residual by roughly 2^3
    assert 3.0 < min(ratios)
    assert 5.0 < float(np.mean(ratios)) < 12.0


def test_magnus_defect_refuses_a_hamiltonian_that_couples_sectors():
    # the exact cycle is built per bath-magnetization sector, so a bath
    # field along x, which flips bath spins, cannot be represented
    m = small_model(seed=3)
    h = build_h_free(m) + 0.01 * np.sum(oracle.full_space(m.n_bath).ix, axis=0)
    with pytest.raises(ContractError, match="couples bath-magnetization sectors"):
        magnus_defect(compile_pdd(10.0), h, m.ops)


def test_magnus_defect_refuses_a_hamiltonian_that_flips_the_system_spin():
    # the free steps are built per system S_z half of each sector, so a
    # term S_x I_z^0, which conserves the bath I_z, cannot be represented
    m = small_model(seed=3)
    ops = oracle.full_space(m.n_bath)
    h = build_h_free(m) + 0.01 * ops.sx @ ops.iz[0]
    with pytest.raises(ContractError, match="couples the system spin's up and down halves"):
        magnus_defect(compile_pdd(10.0), h, m.ops)


def test_claim_registry():
    for cid in ("cpmg-flip-angle-zeroth-order",
                "cpmg2-error-sum-vanishes",
                "pdd-cancels-system-bath-coupling"):
        report = verify_claim(cid)
        assert report["pass"], report
        assert report["residual"] < report["tolerance"]
        assert report["claim"] == cid
        assert isinstance(report["statement"], str)
    with pytest.raises(ContractError):
        verify_claim("no-such-claim")


@pytest.mark.parametrize("n_bath, expected", [(1, 0.31416), (3, 0.62832)])
def test_error_generator_sum_of_a_same_axis_pair(n_bath, expected):
    # a +y/+y pair adds its two flip-angle errors instead of cancelling
    # them: 2 eps pi |S_y|, with |S_y| = sqrt(dim) / 2 on the full space.
    # With H_free = 0 the toggled segments carry only the error kicks, so
    # tau_c |H0| is the norm of their sum, as in the cpmg2 claim
    ops = build_operator_set(n_bath)
    eps = 0.05
    tl = compile_cpmg(1.0, 0.0, variant="cpmg")
    segs = toggling_frames(tl, np.zeros((ops.dim, ops.dim)), ErrorModel(flip_angle_fraction=eps))
    got = tl.cycle_time * float(np.linalg.norm(average_hamiltonian(segs)[0]))
    sy = oracle.full_space(n_bath).sy
    assert got == pytest.approx(2.0 * eps * np.pi * float(np.linalg.norm(sy)), rel=1e-12)
    assert got == pytest.approx(expected, abs=5e-6)
    report = verify_claim("cpmg2-error-sum-vanishes",
                          {"n_bath": n_bath, "flip_angle_fraction": eps})
    assert report["norms"]["generator_sum"] < 1e-14


def test_residual_text_prints_round_off_as_a_bound():
    assert avgham.residual_text(9.939e-16, ".3e") == "residual<1e-13"
    assert avgham.residual_text(0.0, ".2e") == "residual<1e-13"
    assert avgham.residual_text(2.5e-12, ".3e") == "residual=2.500e-12"
    assert avgham.residual_text(0.125, ".2e") == "residual=1.25e-01"


@pytest.mark.parametrize("cid", ["cpmg-flip-angle-zeroth-order", "cpmg2-error-sum-vanishes"])
def test_flip_angle_claims_refuse_a_zero_flip_angle(cid):
    with pytest.raises(ContractError, match="flip_angle_fraction"):
        verify_claim(cid, {"flip_angle_fraction": 0.0})


def test_flip_angle_claim_on_an_empty_bath():
    report = verify_claim("cpmg-flip-angle-zeroth-order", {"n_bath": 0})
    assert report["pass"]
    assert report["norms"]["system_bath_max"] == 0.0


def test_claim_accepts_parameter_overrides():
    report = verify_claim("cpmg-flip-angle-zeroth-order",
                          {"tau": 14.0, "flip_angle_fraction": 0.02, "seed": 3})
    assert report["pass"]


def _full_space_magnus_defect(timeline, h_free, ops, segs):
    """magnus_defect from the ideal full-space frames `segs`, with the exact
    cycle built from kron-embedded ideal pulses."""
    h0, h1 = average_hamiltonian(segs)
    u_avg = evolve(h0 + h1, timeline.cycle_time).matrix
    u_exact = np.eye(ops.dim, dtype=complex)
    frame = np.eye(ops.dim, dtype=complex)
    free = {}
    for kind, payload in timeline.segments():
        if kind == "free":
            if payload not in free:
                free[payload] = evolve(h_free, payload).matrix
            u_exact = free[payload] @ u_exact
        else:
            p = ideal_pulse(payload.axis, payload.nominal_angle, ops).matrix
            u_exact = p @ u_exact
            frame = p @ frame
    return float(np.linalg.norm(frame.conj().T @ u_exact - u_avg))


_AVGHAM_FAMILIES = [("hahn", 2, 4), ("cp", 2, 4), ("cpmg", 2, 4), ("cpmg2", 2, 4),
                    ("pdd", 2, 4), ("cdd", 1, 4), ("cdd", 2, 4), ("cdd", 3, 4),
                    ("udd", 2, 1), ("udd", 2, 2), ("udd", 2, 3), ("udd", 2, 4)]


@pytest.mark.parametrize("n_bath", [3, 7])
@pytest.mark.parametrize("family, order, udd_pulses", _AVGHAM_FAMILIES, ids=[
    f"cdd{o}" if f == "cdd" else f"udd{u}" if f == "udd" else f
    for f, o, u in _AVGHAM_FAMILIES])
def test_system_rotations_match_full_space_reference(family, order, udd_pulses, n_bath):
    m = default_model(seed=37, n_bath=n_bath)
    h = build_h_free(m)
    tl = compile_family(family, 13.0, 0.0, 1, order, udd_pulses)
    err = ErrorModel(flip_angle_fraction=0.04, axis_tilt=0.03)
    sectors = _sectors(n_bath)
    blocks = _sector_blocks(h, sectors)
    scale = float(np.linalg.norm(h))
    refs = {}
    for pulse_model, error_model in (("ideal", None), ("errored", err)):
        try:
            ref = refs[pulse_model] = oracle.toggling_frames(tl, h, error_model)
        except ContractError:
            # pdd and cdd end on a pulse, so an errored cycle is undefined
            with pytest.raises(ContractError, match="trailing"):
                toggling_frames(tl, h, error_model)
            with pytest.raises(ContractError, match="trailing"):
                next(avgham._sector_averages(tl, blocks, error_model))
            continue
        got = toggling_frames(tl, h, error_model)
        assert [s.duration for s in got] == [s.duration for s in ref]
        for g, r in zip(got, ref):
            assert np.max(np.abs(g.h_tilde - r.h_tilde)) < 1e-12
        # each sector block toggles alone, with its kicks at the block's width
        for idx, block in zip(sectors, blocks):
            got = toggling_frames(tl, block, error_model)
            for g, r in zip(got, ref, strict=True):
                assert np.max(np.abs(g.h_tilde - r.h_tilde[np.ix_(idx, idx)])) < 1e-12
        # and the one-walk fold of each block matches the full-space average
        h0, h1 = average_hamiltonian(ref)
        folded = avgham._sector_averages(tl, blocks, error_model)
        for idx, (g0, g1) in zip(sectors, folded, strict=True):
            assert np.max(np.abs(g0 - h0[np.ix_(idx, idx)])) < 1e-13 * scale
            assert np.max(np.abs(g1 - h1[np.ix_(idx, idx)])) < 1e-13 * scale**2 * tl.cycle_time
    expected = _full_space_magnus_defect(tl, h, m.ops, refs["ideal"])
    assert abs(magnus_defect(tl, h, m.ops) - expected) <= 1e-10 * expected


@pytest.mark.parametrize("n_bath", [3, 5])
def test_magnus_defect_keeps_the_imaginary_part_of_a_hermitian_hamiltonian(n_bath):
    # i g (I+_0 I-_1 - h.c.) conserves S_z and the bath I_z, but its free-step
    # halves are not real, so they must not be diagonalized as real matrices
    m = default_model(seed=37, n_bath=n_bath)
    ops = oracle.full_space(n_bath)
    flip_flop = (ops.ix[0] + 1j * ops.iy[0]) @ (ops.ix[1] - 1j * ops.iy[1])
    h = build_h_free(m) + 0.02j * (flip_flop - flip_flop.conj().T)
    assert np.max(np.abs(h.imag)) > 0.009
    for tl in (compile_cpmg(13.0, 0.0), compile_cdd(2, 5.0)):
        expected = _full_space_magnus_defect(tl, h, m.ops, oracle.toggling_frames(tl, h))
        assert abs(magnus_defect(tl, h, m.ops) - expected) <= 1e-10 * expected


def _half_pi_timeline(axes):
    """One cycle of pi/2 delta pulses about `axes` in turn, 3 us apart."""
    events = [PulseEvent(3.0 * (i + 1), axis, 0.5 * math.pi, 0.0) for i, axis in enumerate(axes)]
    return Timeline(events, 3.0 * (len(axes) + 1), label="half-pi")


def _counted_defects(monkeypatch, tl, h, ops, paired):
    """magnus_defect of one cycle, with the spin-flip pairing left on or
    forced off, and the shapes of its exponentials of H0 + H1: one per
    computed sector (_recorded_eighs)."""
    with monkeypatch.context() as patch:
        _, exps = _recorded_eighs(patch)
        if not paired:
            patch.setattr(avgham, "_defect_flip", lambda events, blocks: None)
        return magnus_defect(tl, h, ops), exps


_PAIRED_FAMILIES = [("cdd", 1, 4), ("cdd", 2, 4), ("cdd", 3, 4), ("pdd", 2, 4),
                    ("cpmg", 2, 4), ("udd", 2, 4)]


@pytest.mark.parametrize("n_bath", range(1, 8))
def test_paired_magnus_defect_matches_every_sector(monkeypatch, n_bath):
    # pi pulses about x and y, and pi/2 pulses about y alone, turn into
    # themselves up to a sign under the flip about x or y, which maps
    # H_free's sector k onto n - k; the middle sector of an even n counts once
    m = default_model(seed=37, n_bath=n_bath)
    h = build_h_free(m)
    sectors = _sectors(n_bath)
    widths = [idx.size for idx in sectors]
    timelines = [compile_family(f, tau, 0.0, 1, order, pulses)
                 for f, order, pulses in _PAIRED_FAMILIES for tau in (5.0, 13.0)]
    for tl in (*timelines, _half_pi_timeline(["y", "-y", "y"])):
        # pi pulses map S_z onto -S_z, so H0 + H1 splits into its halves;
        # the pi/2 cycle is exponentiated as whole blocks
        split = tl.label != "half-pi"
        paired, seen = _counted_defects(monkeypatch, tl, h, m.ops, True)
        assert seen == _exponentials(widths[:n_bath // 2 + 1], split)
        full, seen = _counted_defects(monkeypatch, tl, h, m.ops, False)
        assert seen == _exponentials(widths, split)
        # at n_bath 1 every toggled term commutes and the defect is rounding;
        # short cycles leave defects near 1e-5, where both differ by 1e-16
        assert abs(paired - full) <= max(1e-12 * full, 1e-15), (tl.label, paired, full)
    blocks = _sector_blocks(np.asarray(h, dtype=complex), sectors)
    assert avgham._defect_flip(_half_pi_timeline(["y", "-y"]).events, blocks) == 1j
    assert avgham._defect_flip(compile_cdd(2, 5.0).events, blocks) == 1.0


@pytest.mark.parametrize("n_bath", range(1, 8))
def test_magnus_defect_per_system_half_matches_the_whole_block(monkeypatch, n_bath):
    # the pi pulses of these families map S_z onto -S_z, so H0 + H1 is
    # block-diagonal in the system halves up to round-off and its exponential
    # is that of its halves; forcing the whole-block exponential must agree
    m = default_model(seed=37, n_bath=n_bath)
    h = build_h_free(m)
    for f, order, pulses in _PAIRED_FAMILIES:
        for tau in (5.0, 13.0):
            tl = compile_family(f, tau, 0.0, 1, order, pulses)
            assert avgham._keeps_sz(tl.events)
            split = magnus_defect(tl, h, m.ops)
            with monkeypatch.context() as patch:
                patch.setattr(avgham, "_keeps_sz", lambda events: False)
                whole = magnus_defect(tl, h, m.ops)
            # at n_bath 1 every toggled term commutes and the defect is
            # rounding: about 1e-15 from the whole 4-wide block, 1e-18 by halves
            assert abs(split - whole) <= max(1e-12 * whole, 1e-14), (tl.label, split, whole)
    assert not avgham._keeps_sz(_half_pi_timeline(["y"]).events)


@pytest.mark.parametrize("n_bath", [2, 3])
@pytest.mark.parametrize("case", ["odd-field", "half-pi-x-and-y"])
def test_magnus_defect_without_a_spin_flip_keeps_every_sector(monkeypatch, case, n_bath):
    m = default_model(seed=37, n_bath=n_bath)
    h, tl = build_h_free(m), compile_cdd(2, 5.0)
    if case == "odd-field":
        # omega S_z (x) 1 keeps the sectors and S_z, but the flip turns it over
        h = h + 0.03 * np.kron(np.diag([0.5, -0.5]), np.eye(m.ops.dim // 2))
    else:
        # the flip about x turns a pi/2 pulse about y into its inverse, and
        # the flip about y does so for x
        tl = _half_pi_timeline(["x", "y", "-x", "-y"])
    blocks = _sector_blocks(np.asarray(h, dtype=complex), _sectors(n_bath))
    assert avgham._defect_flip(tl.events, blocks) is None
    got, seen = _counted_defects(monkeypatch, tl, h, m.ops, True)
    assert seen == _exponentials([idx.size for idx in _sectors(n_bath)], case == "odd-field")
    # the all-sector layout is the one code path, so the same bits
    assert got == _counted_defects(monkeypatch, tl, h, m.ops, False)[0]
    expected = _full_space_magnus_defect(tl, h, m.ops, oracle.toggling_frames(tl, h))
    assert abs(got - expected) <= 1e-10 * expected


def test_sector_averages_build_each_kick_generator_once(monkeypatch):
    m = default_model(seed=37, n_bath=7)
    tl = compile_cpmg(13.0, 0.0)
    calls = []
    generator = avgham.rotation_generator

    def counted(u):
        calls.append(u)
        return generator(u)

    monkeypatch.setattr(avgham, "rotation_generator", counted)
    avgham._cycle_norms(tl, m, ErrorModel(flip_angle_fraction=0.04, axis_tilt=0.03))
    # once per pulse, not once per pulse per sector block
    assert len(calls) == len(tl.events) == 2


def _dense_claim_norms(n_bath, eps=0.05):
    """The norms of each claim at its defaults, from full-space kron
    products, full-space frames and full-space error generators."""
    ops, err = oracle.full_space(n_bath), ErrorModel(flip_angle_fraction=eps)
    m = default_model(seed=11, n_bath=n_bath, b_scale=0.05, d_scale=0.05)
    tl, h_e = compile_cpmg(30.0, 0.0), oracle.h_e(m)
    h0, _ = average_hamiltonian(oracle.toggling_frames(tl, oracle.h_se(m) + h_e, err))
    rest, comps = h0 - h_e, {}
    for u, s_u in zip("xyz", (ops.sx, ops.sy, ops.sz)):
        basis = [(f"s{u}", s_u)] + [(f"s{u}.iz{j}", s_u @ iz) for j, iz in enumerate(ops.iz)]
        for key, op in basis:
            comps[key] = c = np.vdot(op, h0 - h_e) / np.vdot(op, op).real
            rest = rest - c * op
    norms = {"cpmg-flip-angle-zeroth-order": {
        "sy_coefficient": comps["sy"].real, "expected": 2.0 * eps * np.pi / tl.cycle_time,
        "off_axis_max": max(abs(comps["sx"]), abs(comps["sz"])),
        "system_bath_max": max([abs(v) for k, v in comps.items() if ".iz" in k], default=0.0),
        "unmodeled_rest": float(np.linalg.norm(rest))}}
    tl = compile_cpmg(1.0, 0.0, variant="cpmg2")
    h0, _ = average_hamiltonian(oracle.toggling_frames(tl, np.zeros((ops.dim, ops.dim)), err))
    norms["cpmg2-error-sum-vanishes"] = {
        "generator_sum": tl.cycle_time * float(np.linalg.norm(h0)),
        "reference": eps * np.pi * float(np.linalg.norm(ops.sy))}
    m = default_model(seed=5, n_bath=n_bath, b_scale=0.05, d_scale=0.05)
    rng = np.random.default_rng(5)
    h_err = oracle.h_error(rng.uniform(-0.05, 0.05, 3), rng.uniform(-0.05, 0.05, (3, n_bath)), m)
    h_e = oracle.h_e(m)
    h0, _ = average_hamiltonian(oracle.toggling_frames(compile_pdd(20.0, 0.0), h_err + h_e))
    norms["pdd-cancels-system-bath-coupling"] = {
        "h0_minus_bath": float(np.linalg.norm(h0 - h_e)),
        "reference": float(np.linalg.norm(h_err))}
    return norms


@pytest.mark.parametrize("n_bath", [3, 7])
def test_claims_match_full_space_reference(n_bath):
    for cid, ref in _dense_claim_norms(n_bath).items():
        report = verify_claim(cid, {"n_bath": n_bath})
        assert report["pass"] and report["norms"].keys() == ref.keys(), report
        # the residual norms sit at round-off, so every norm is compared
        # relative to the largest norm of its report
        scale = max(abs(v) for v in ref.values())
        for key, value in ref.items():
            assert abs(report["norms"][key] - value) <= 1e-12 * scale, (cid, key)


@pytest.mark.parametrize("run", [
    *[lambda cfg, cid=cid: verify_claim(cid, {"n_bath": 9})["pass"] for cid in CLAIM_IDS],
    lambda cfg: main(["avgham", "--config", cfg]) == 0], ids=[*CLAIM_IDS, "cli"])
def test_avgham_forms_no_full_space_matrix(run, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[bath]\nn_bath = 9\n", encoding="utf-8")
    tracemalloc.start()
    try:
        assert run(str(cfg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense 2^10 complex matrix is 16 MiB
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_avgham_cli_holds_one_block_at_a_time(tmp_path):
    # cdd2 has 16 free segments: holding all of them as toggled matrices of
    # the widest 9-spin block (252 states, 1 MiB each) alone takes 16 MiB
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[bath]\nn_bath = 9\n\n[sequence]\nfamily = cdd\norder = 2\n",
                   encoding="utf-8")
    tracemalloc.start()
    try:
        assert main(["avgham", "--config", str(cfg), "--json", str(tmp_path / "a.json")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20, f"peak {peak / 2**20:.1f} MiB"
