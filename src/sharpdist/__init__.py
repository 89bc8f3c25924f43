"""Toolkit for energy distributions of dense superpositions over fast-growing spectra.

Builds W(E) proportional to |a(E)|^2 times the density of states entirely
in the log domain, computes moments and peak locations, checks them against
edge-expansion and saddle-point predictions, fits the sharpness-scaling
exponent of width/mean across system sizes, and validates everything
against exact discrete spectra.
"""

__version__ = "0.1.0"

from .configio import model_from_config, parse_kv_text, profile_from_config
from .distribution import (DEFAULT_POLICY, DistributionSummary,
                           EnergyDistribution, GridPolicy, PeakResult,
                           Prediction, bounded_profile_prediction,
                           build_distribution, lump_mass_fractions, moments,
                           peak, refine_once, summarize,
                           tail_profile_prediction)
from .dos import (CustomEntropy, DiscreteSpectrum, IdealGas, IsingChain,
                  ising_chain_spectrum)
from .errors import (ConvergenceError, DivergenceError, DomainError,
                     EmptyOverlapError, FitError, NoMaximumError,
                     ToolkitError)
from .oracle import (DiscrepancyReport, DiscreteState,
                     compare_discrete_continuum, evolve_phases,
                     expectation_of_energy_function, prepare_state,
                     state_moments)
from .profiles import (AlgebraicCutoff, AlgebraicTail, AmplitudeProfile,
                       ExponentialCutoff, ExponentialTail, Lumps,
                       UniformWindow)
from .scaling import (DELTA_SCALINGS, FailureReport, PowerLawFit,
                      SweepRecord, algebraic_tail_builder,
                      bounded_window_builder, default_n_values,
                      exponential_tail_builder, failure_mode_demo,
                      fit_power_law, sweep, sweep_point)

__all__ = [name for name in dir() if not name.startswith("_")]
