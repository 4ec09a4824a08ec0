"""Exact dynamical-decoupling simulations for one spin-1/2 in a spin bath.

The package propagates dense density matrices of a central spin coupled to
a small fluctuating spin bath, compiles the standard decoupling trains
(Hahn echo, two-pulse cycles, four-pulse blocks and their concatenations,
nonequidistant trains), injects static pulse imperfections, and reduces
survival-probability curves to decay times, optimal delays, and
average-Hamiltonian diagnostics.
"""

from .analysis import (SEQUENCE_FAMILIES, DecaySummary, OrderFit, SweepResult,
                       compile_family, decay_time, envelope, fair_tau,
                       fit_order_relation, hahn_decay_trace, sweep_tau)
from .avgham import (CLAIM_IDS, ToggledSegment, average_hamiltonian,
                     magnus_defect, rotation_generator, toggling_frames,
                     verify_claim)
from .config import ExperimentConfig, load_config, model_from_config, parse_config
from .engine import (RunSpec, SurvivalTrace, TauBEstimate, bath_correlation,
                     estimate_tau_b, model_tau_b, propagate)
from .errors import (ConfigError, ContractError, ResourceLimitError,
                     SpinBathError, TimelineError)
from .hamiltonians import (CouplingSpec, SpinBathModel, build_h_e, build_h_free,
                           build_model, default_model, sample_couplings)
from .operators import OperatorSet, Propagator, build_operator_set, evolve
from .pulses import (BimodalRf, ErrorModel, FixedRf, GaussianRf, PulseSpec,
                     axis_vector, error_factor, ideal_pulse, real_pulse,
                     sample_rf_scale)
from .sequences import (CycleStats, PulseEvent, Timeline, compile_cdd,
                        compile_cpmg, compile_free, compile_hahn, compile_pdd,
                        compile_udd, cycle_stats, dump_timeline,
                        validate_timeline)
from .util import KHZ_TO_RAD_PER_US

__version__ = "0.1.0"

# The documented API: the names the README, demos and benchmark use. Every
# name imported above stays reachable as an attribute of the package.
__all__ = [
    "CLAIM_IDS",
    "build_model",
    "default_model",
    "build_h_free",
    "ErrorModel",
    "GaussianRf",
    "compile_free",
    "compile_hahn",
    "compile_cpmg",
    "compile_pdd",
    "compile_cdd",
    "compile_udd",
    "cycle_stats",
    "dump_timeline",
    "RunSpec",
    "propagate",
    "bath_correlation",
    "model_tau_b",
    "magnus_defect",
    "verify_claim",
    "decay_time",
    "sweep_tau",
    "fit_order_relation",
    "hahn_decay_trace",
    "__version__",
]
