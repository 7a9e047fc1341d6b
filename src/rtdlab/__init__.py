"""Policy-evaluation laboratory for relative TD learning with linear features.

Layers:

* :mod:`rtdlab.markov`      exact finite-chain machinery
* :mod:`rtdlab.features`    feature maps and steady-state statistics
* :mod:`rtdlab.meanflow`    mean-flow matrices and spectral diagnostics
* :mod:`rtdlab.asymptotics` noise covariance, bias, and sensitivity
* :mod:`rtdlab.learner`     stochastic TD learners and the run harness
* :mod:`rtdlab.models`      built-in finite models
* :mod:`rtdlab.speedscale`  continuous-state speed-scaling benchmark
* :mod:`rtdlab.cli`         experiment front end
"""

from .asymptotics import (AsymptoticsReport, NoiseModel, SensitivityReport,
                          asymptotics_report, build_noise_model, matrix_poisson,
                          noise_variant, sensitivity, sigma_delta, sigma_theta_star,
                          upsilon_bar)
from .errors import (ConfigError, MissingSplitSample, NoNormalizer, NonZeroMean,
                     NotSimple, NotUnichain, NumericalDivergence, RtdLabError,
                     SingularResolvent, SingularSystem, UnsupportedLambda)
from .features import (BaselineMean, FeatureMap, FeatureStats, NormalizerResult,
                       autocorrelation, baseline_mean, builtin_basis, feature_mean,
                       feature_mean_under, feature_stats, find_normalizer,
                       finite_poly_basis, resolvent_sum, tabular_basis)
from .learner import (EmpiricalBias, FiniteChainEnv, LearnerConfig, RunResult, Snapshot,
                      StepSchedule, empirical_bias, empirical_clt_samples, run, run_many,
                      snapshot_indices, substream)
from .markov import (FiniteChain, FiniteMdp, PoissonSolution, RandomizedPolicy,
                     build_chain, discounted_q, load_model, save_model, solve_poisson,
                     stationary_pmf)
from .meanflow import (DirichletReport, InstabilityTable, MeanFlow,
                       PerturbationReport, SpectralReport, b_bar, dirichlet_report,
                       eigen_perturbation, instability_probe, mean_flow_relative,
                       mean_flow_td_lambda, spectral_report)
from .speedscale import (SpeedScalingEnv, SpeedScalingModel, estimate_stats,
                         gamma_moment_check, simulate_speed_scaling)

__version__ = "0.1.0"
