"""Spans around spinbath's public functions, installed from outside the package.

A Tracer replaces each traced function at every module binding that holds
the same object: `engine` imports `real_pulse`, `evolve` and `build_h_free`
by name, `analysis` and `cli` import `propagate` and `sweep_tau` by name,
and the package re-exports most names, so patching one binding would miss
calls that go through the others. `Propagator.__post_init__` is wrapped on
the class and `numpy.linalg.eigh`/`eig`/`inv` on the numpy.linalg module,
which is where spinbath looks them up at call time.

Spans (name, start, end, parent, meta) are kept in memory; layer metrics
are computed from them after the run and every original is restored by
`uninstall`.
"""

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at the top
    meta: dict = None

    @property
    def duration(self):
        return self.end - self.start


def _dim3(a):
    """Sum of d^3 over the (possibly stacked) square matrices in `a`."""
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0
    batch = 1
    for n in shape[:-2]:
        batch *= n
    return batch * shape[-1] ** 3


def _propagate_meta(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    tl = spec.timeline
    return {"realizations": spec.n_realizations, "cycles": tl.n_cycles,
            "pulses_per_cycle": tl.pulses_per_cycle, "dim": spec.model.ops.dim}


def _linalg_meta(args, kwargs):
    return {"dim3": _dim3(args[0] if args else kwargs.get("a"))}


# (layer name, owner module, attribute, meta function). Owners are modules
# except for Propagator, whose checks live in __post_init__ on the class.
TARGETS = (
    ("operators.Propagator", "spinbath.operators:Propagator", "__post_init__", None),
    ("operators.evolve", "spinbath.operators", "evolve", None),
    ("operators.build_operator_set", "spinbath.operators", "build_operator_set", None),
    ("hamiltonians.default_model", "spinbath.hamiltonians", "default_model", None),
    ("hamiltonians.build_h_free", "spinbath.hamiltonians", "build_h_free", None),
    ("hamiltonians.build_h_e", "spinbath.hamiltonians", "build_h_e", None),
    ("pulses.real_pulse", "spinbath.pulses", "real_pulse", None),
    ("pulses.ideal_pulse", "spinbath.pulses", "ideal_pulse", None),
    ("sequences.compile", "spinbath.sequences", "compile_free", None),
    ("sequences.compile", "spinbath.sequences", "compile_hahn", None),
    ("sequences.compile", "spinbath.sequences", "compile_cpmg", None),
    ("sequences.compile", "spinbath.sequences", "compile_pdd", None),
    ("sequences.compile", "spinbath.sequences", "compile_cdd", None),
    ("sequences.compile", "spinbath.sequences", "compile_udd", None),
    ("sequences.compile", "spinbath.sequences", "validate_timeline", None),
    ("engine.propagate", "spinbath.engine", "propagate", _propagate_meta),
    ("engine.bath_correlation", "spinbath.engine", "bath_correlation", None),
    ("analysis.sweep_tau", "spinbath.analysis", "sweep_tau", None),
    ("analysis.hahn_decay_trace", "spinbath.analysis", "hahn_decay_trace", None),
    ("analysis.decay_time", "spinbath.analysis", "decay_time", None),
    ("avgham.toggling_frames", "spinbath.avgham", "toggling_frames", None),
    ("avgham.average_hamiltonian", "spinbath.avgham", "average_hamiltonian", None),
    ("avgham.magnus_defect", "spinbath.avgham", "magnus_defect", None),
    ("avgham.verify_claim", "spinbath.avgham", "verify_claim", None),
    ("config.load_config", "spinbath.config", "load_config", None),
    ("config.model_from_config", "spinbath.config", "model_from_config", None),
    ("cli.main", "spinbath.cli", "main", None),
    ("linalg.eigh", "numpy.linalg", "eigh", _linalg_meta),
    ("linalg.eig", "numpy.linalg", "eig", _linalg_meta),
    ("linalg.inv", "numpy.linalg", "inv", _linalg_meta),
)


def _resolve(owner):
    module_name, _, attr = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, attr) if attr else obj


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "spinbath" or name.startswith("spinbath."))]


class Tracer:
    """Records nested spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original), in install order

    def wrap(self, name, fn, meta=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                        meta(args, kwargs) if meta else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS):
        """Wrap every target at its owner and at every spinbath binding of it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for name, owner_name, attr, meta in targets:
            owner = _resolve(owner_name)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, meta)
            self._patch(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is open")
        spans, self.spans = self.spans, []
        return spans


def layer_totals(spans):
    """Per layer name: calls, s (outermost spans only) and self_s.

    `s` sums the spans of a name that have no ancestor of the same name, so
    a traced function reached again inside itself is not counted twice.
    `self_s` is each span's duration minus the durations of its direct
    children, summed; calls run one at a time, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    totals = {}
    for i, span in enumerate(spans):
        t = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += span.duration - child_time[i]
        if not _has_ancestor_named(spans, span.parent, span.name):
            t["s"] += span.duration
    return totals


def _has_ancestor_named(spans, parent, name):
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def engine_counts(spans):
    """Work counts taken at the engine boundary.

    realization_cycles sums n_realizations x n_cycles over propagate calls;
    applications counts pulse applications (realizations x cycles x pulses
    per cycle); builds counts real_pulse calls made inside propagate.
    """
    cycles = applications = builds = dim_max = 0
    dim3 = {}
    for span in spans:
        if span.name == "engine.propagate":
            m = span.meta
            cycles += m["realizations"] * m["cycles"]
            applications += m["realizations"] * m["cycles"] * m["pulses_per_cycle"]
            dim_max = max(dim_max, m["dim"])
        elif span.name == "pulses.real_pulse" and \
                _has_ancestor_named(spans, span.parent, "engine.propagate"):
            builds += 1
        elif span.name.startswith("linalg."):
            dim3[span.name] = dim3.get(span.name, 0) + span.meta["dim3"]
    return {"realization_cycles": cycles, "pulse_applications": applications,
            "real_pulse_builds": builds, "dense_dim_max": dim_max, "dim3": dim3}


def to_records(spans):
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "meta": s.meta} for s in spans]
