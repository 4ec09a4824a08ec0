"""Control pulses: ideal rotations, finite-width pulses, and error models.

A pulse is a rotation of the central spin about an axis in the transverse
plane. Ideal pulses are instantaneous; real pulses evolve the full system
under H_free plus the RF drive for the pulse duration, so bath dynamics
during the pulse is kept exactly. Non-ideality enters through a static
flip-angle fraction, a static axis tilt, a per-realization RF amplitude
scale drawn from a configurable distribution (static spatial inhomogeneity:
one draw per realization, not per pulse), and optionally a pulse-to-pulse
phase jitter that resamples the axis tilt for every pulse application.

The jitter channel matters for trains whose pulses share one axis: any
static imperfection of such pulses cancels pairwise (two identical pi
rotations compose to a global phase), so only a fluctuating axis can
damage the spin component along the pulse axis.

A delta pulse touches the system spin only: it stays a 2x2 rotation
(delta_rotation) that _left applies to the system factor of a full-space
or sector matrix, and the engine to all its sectors at once; only the
public builders ideal_pulse and real_pulse embed it as R (x) 1_bath. Its
2x2 error factor E gives U_real = (E (x) 1_bath) @ U_ideal, which the
average-Hamiltonian analysis consumes. real_pulse adds a finite pulse's
2x2 drive to the dense H_free; the engine turns the +x pulse of each
strength to every axis and tilt by a phase, as H_free conserves S_z.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .operators import _SPIN_HALF, Propagator, evolve

PULSE_AXES = ("x", "y", "-x", "-y")
PULSE_AREA_ATOL = 1e-9


def split_axis(axis):
    """('-y') -> ('y', -1.0); the sign folds into the rotation angle."""
    if axis not in PULSE_AXES:
        raise ContractError(f"unknown pulse axis {axis!r}; PULSE_AXES are {PULSE_AXES}")
    return axis[-1], -1.0 if axis[0] == "-" else 1.0


def axis_vector(base, tilt):
    """(u_x, u_y) of the transverse unit vector of base axis 'x' or 'y'
    tilted by `tilt` rad within the plane."""
    if base == "x":
        return np.cos(tilt), np.sin(tilt)
    if base == "y":
        return -np.sin(tilt), np.cos(tilt)
    raise ContractError(f"unknown base axis {base!r}; PULSE_AXES are {PULSE_AXES}")


@dataclass(frozen=True)
class PulseSpec:
    """Nominal description of one pulse.

    duration == 0 denotes a delta pulse. For finite pulses the on-resonance
    area must close: rf_amplitude * duration == nominal_angle at unit RF
    scale (checked within 1e-9).
    """

    axis: str
    nominal_angle: float
    duration: float = 0.0
    rf_amplitude: float = 0.0

    def __post_init__(self):
        if self.axis not in PULSE_AXES:
            raise ContractError(f"pulse axis must be one of {PULSE_AXES}, got {self.axis!r}")
        if not (all(map(math.isfinite, (self.nominal_angle, self.duration, self.rf_amplitude)))
                and self.duration >= 0):
            raise ContractError(f"pulse angle, duration and rf_amplitude must be finite, with "
                                f"duration >= 0, got {self}")
        if self.duration > 0:
            if self.rf_amplitude <= 0:
                raise ContractError("finite-duration pulse needs rf_amplitude > 0")
            area = self.rf_amplitude * self.duration
            if abs(area - self.nominal_angle) > PULSE_AREA_ATOL:
                raise ContractError(
                    f"pulse area {area} does not match nominal angle {self.nominal_angle}"
                )

    @classmethod
    def delta(cls, axis, nominal_angle):
        return cls(axis, nominal_angle, 0.0, 0.0)


@dataclass(frozen=True)
class FixedRf:
    """RF amplitude scale pinned to exactly 1."""

    def sample(self, rng):
        return 1.0


@dataclass(frozen=True)
class BimodalRf:
    """Two-site RF distribution: s1 with probability `weight`, else s2.

    The default (0.95, 1.05, 0.5) is a crude stand-in for a coil profile of
    about 10 percent spread; two discrete amplitudes produce beats in the
    error-dominated signal rather than a smooth envelope.
    """

    s1: float = 0.95
    s2: float = 1.05
    weight: float = 0.5

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.s1, self.s2)):
            raise ContractError("RF scale factors must be finite and > 0")
        if not 0.0 <= self.weight <= 1.0:
            raise ContractError("weight must lie in [0, 1]")

    def sample(self, rng):
        return self.s1 if rng.random() < self.weight else self.s2


@dataclass(frozen=True)
class GaussianRf:
    """Gaussian RF scale; sd = 0.10 matches an inhomogeneity of about 10%."""

    mean: float = 1.0
    sd: float = 0.10

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.sd)
                and self.mean > 0 and self.sd >= 0):
            raise ContractError("GaussianRf needs a finite mean > 0 and a finite sd >= 0")

    def sample(self, rng):
        return max(float(rng.normal(self.mean, self.sd)), 1e-6)


@dataclass(frozen=True)
class ErrorModel:
    """Static pulse imperfections applied identically to every pulse.

    flip_angle_fraction eps rescales every rotation angle to (1 + eps) of
    nominal; axis_tilt rotates the pulse axis within the transverse plane;
    rf is the amplitude-scale distribution sampled once per realization.
    tilt_jitter_sd adds a gaussian tilt resampled independently for every
    pulse (RF phase noise); unlike the static channels it is not constant
    within a realization.
    """

    rf: object = field(default_factory=FixedRf)
    flip_angle_fraction: float = 0.0
    axis_tilt: float = 0.0
    tilt_jitter_sd: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.flip_angle_fraction) and math.isfinite(self.axis_tilt)):
            raise ContractError("flip_angle_fraction and axis_tilt must be finite")
        if not (math.isfinite(self.tilt_jitter_sd) and self.tilt_jitter_sd >= 0):
            raise ContractError(
                f"tilt_jitter_sd must be finite and >= 0, got {self.tilt_jitter_sd}")

    @property
    def is_trivial(self):
        return (
            isinstance(self.rf, FixedRf)
            and self.flip_angle_fraction == 0.0
            and self.axis_tilt == 0.0
            and self.tilt_jitter_sd == 0.0
        )


_IDEAL = ErrorModel()


def sample_rf_scale(err, seed):
    """One RF amplitude scale draw; deterministic in `seed`."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    value = float(err.rf.sample(rng))
    if not (math.isfinite(value) and value > 0):
        raise ContractError(f"sampled RF scale must be finite and > 0, got {value}")
    return value


def delta_rotation(axis, angle, rf_scale=1.0, err=None, tilt=None):
    """2x2 rotation of the system spin by one delta pulse.

    Turns by angle * rf_scale * (1 + eps) about `axis` tilted by `tilt`
    within the transverse plane; a '-' axis folds its sign into the angle.
    `err` supplies the flip-angle fraction eps and, when `tilt` is None,
    the static axis tilt; err=None is the ideal pulse.
    """
    err = _IDEAL if err is None else err
    base, sign = split_axis(axis)
    ux, uy = axis_vector(base, err.axis_tilt if tilt is None else tilt)
    half = 0.5 * (sign * angle * (rf_scale * (1.0 + err.flip_angle_fraction)))
    c, s = np.cos(half), np.sin(half)
    # cos(half) 1 - i sin(half) (u . sigma), entry by entry
    return np.array([[c, complex(-s * uy, -s * ux)],
                     [complex(s * uy, -s * ux), c]])


def ideal_frame(events):
    """Net ideal rotation, as a 2x2 system rotation, of the pulses `events`
    (anything with .axis and .nominal_angle) applied in order."""
    frame = np.eye(2, dtype=complex)
    for ev in events:
        frame = delta_rotation(ev.axis, ev.nominal_angle) @ frame
    return frame


def _left(u, a):
    """u @ a; a 2x2 u is a system-spin rotation and acts on the system
    factor of `a` alone, never embedded in the full space."""
    return (u @ a.reshape(u.shape[0], -1)).reshape(a.shape)


def _embedded(r2, ops):
    """A system-spin operator on the full space, r2 (x) 1_bath."""
    return np.kron(r2, np.eye(ops.dim // 2, dtype=complex))


def ideal_pulse(axis, angle, ops):
    """Instantaneous perfect rotation exp(-i angle S_axis) on the full space."""
    return Propagator(_embedded(delta_rotation(axis, angle), ops), 0.0)


def real_pulse(spec, rf_scale, err, h_free, ops, tilt=None):
    """Pulse propagator with errors applied, exact in the full space.

    Delta pulses rotate by nominal_angle * rf_scale * (1 + eps) about the
    tilted axis (see delta_rotation). Finite pulses evolve under
    H_free + sign * w_eff * (u . S) for the pulse duration, with
    w_eff = rf_amplitude * rf_scale * (1 + eps), so system-bath and
    intra-bath dynamics run during the pulse. `tilt` overrides the error
    model's static axis tilt. It is the dense reference of engine._pulse_blocks.
    """
    if not (math.isfinite(rf_scale) and rf_scale > 0):
        raise ContractError(f"rf_scale must be finite and > 0, got {rf_scale}")
    if spec.duration == 0.0:
        r2 = delta_rotation(spec.axis, spec.nominal_angle, rf_scale, err, tilt)
        return Propagator(_embedded(r2, ops), 0.0)
    base, sign = split_axis(spec.axis)
    ux, uy = axis_vector(base, err.axis_tilt if tilt is None else tilt)
    w_eff = spec.rf_amplitude * (rf_scale * (1.0 + err.flip_angle_fraction))
    drive = sign * w_eff * (ux * _SPIN_HALF["x"] + uy * _SPIN_HALF["y"])
    return evolve(np.asarray(h_free, dtype=complex) + _embedded(drive, ops), spec.duration)


def error_factor(spec, rf_scale, err):
    """2x2 error rotation E with real = (E (x) 1_bath) @ ideal for the
    isolated pulse (H_free absent): the realized rotation about spec.axis
    by spec.nominal_angle times the inverse ideal one."""
    realized = delta_rotation(spec.axis, spec.nominal_angle, rf_scale, err)
    return realized @ delta_rotation(spec.axis, spec.nominal_angle).conj().T
