"""scmbench: linear-SCM simulation and parent-identification benchmark."""

from .distmetrics import (EmpiricalSample, Gaussian1D, frechet_gaussian1d,
                          ksample_equality_test)
from .harness import ExperimentConfig, environments_for, run_experiment
from .icp import (EnumerationBudgetError, IcpConfig, icp_identify,
                  invariance_pvalue)
from .identifier import TrainConfig, identify_parents
from .scm import (Environment, GenConfig, GenerationError, LinearGaussianScm,
                  SampleBatch, add_confounders, analytic_moments,
                  four_node_demo_scm, intervene, parents, random_scm, sample)
from .transport import transport_adjust

__version__ = "0.1.0"

__all__ = [
    "EmpiricalSample", "Gaussian1D", "frechet_gaussian1d",
    "ksample_equality_test",
    "ExperimentConfig", "environments_for", "run_experiment",
    "EnumerationBudgetError", "IcpConfig", "icp_identify", "invariance_pvalue",
    "TrainConfig", "identify_parents",
    "Environment", "GenConfig", "GenerationError",
    "LinearGaussianScm", "SampleBatch", "add_confounders", "analytic_moments",
    "four_node_demo_scm", "intervene", "parents", "random_scm", "sample",
    "transport_adjust", "__version__",
]
