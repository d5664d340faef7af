"""weakdelay: postselected weak-measurement time-delay simulation and estimation.

The package simulates two-port postselected spectra for an ultra-small
birefringent time delay and estimates the delay back with a family of
maximum-likelihood estimators, from the exact likelihood-score root down to
moment-based shortcuts for balanced and strongly unbalanced postselection.
A compound-waveplate geometry module maps pivot angles to delays, and a
Monte Carlo layer quantifies shot-noise and misalignment robustness.
"""

from .constants import C_VACUUM, wavelength_to_angular_frequency
from .errors import (BracketingError, DegenerateRecordError, DomainError,
                     FormatError, ModelError, SingularWeakValueError,
                     SolverError, WeakDelayError)
from .io import (load_config, read_record, resolved_config_dict,
                 result_to_dict, write_record)
from .estimators import (EstimationResult, Method, estimate, first_order,
                         general_first_order, jwm_simplified,
                         likelihood_profile, log_likelihood,
                         prepare_likelihood, quartic,
                         score_curvature, score_residual, solve_exact,
                         strubi_reference,
                         wva_first_order, wva_mean_shift)
from .polarization import (QwpModel, WeakValuePair, ideal_weak_values,
                           port_projections)
from .simulator import (ExperimentConfig, SnrPoint, SourceConfig, SweepRow,
                        alpha_min, default_dispersive_qwp, expected_record,
                        make_source,
                        resolution_factor, simulate, snr_sweep, sweep_theta,
                        wva_uncertainty)
from .spectra import (MeasurementRecord, SpectralMoments, Spectrum,
                      completeness_defect, pooled_variance,
                      postselected_distribution,
                      postselection_probabilities_exact, record_moments, zeta)
from .waveplate import (PlateStack, TiltAngles, compound_retardance,
                        default_quartz_stack, effective_path_length,
                        pivot_caveats, pivot_delay, quartz_indices,
                        single_plate_retardance, theta_for_delay)

__version__ = "0.1.0"
