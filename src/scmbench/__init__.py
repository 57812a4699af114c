"""scmbench: linear-SCM simulation and parent-identification benchmark."""

from .distmetrics import (EmpiricalSample, Gaussian1D, fit_gaussian,
                          frechet_gaussian1d, ksample_equality_test)
from .harness import (ExperimentConfig, Report, RunRecord, aggregate_cells,
                      environments_for, fwer, jaccard, read_records_csv,
                      run_experiment, write_records_csv, write_report_json)
from .icp import (EnumerationBudgetError, IcpConfig, IcpResult,
                  icp_identify, invariance_pvalue)
from .identifier import (IdentificationResult, Regressor, TrainConfig,
                         TrainingDivergedError, identify_parents, penalty_step,
                         train_regressor)
from .scm import (Environment, GenConfig, GenerationError, Intervention,
                  LinearGaussianScm, SampleBatch, add_confounders,
                  analytic_moments, four_node_demo_scm, intervene, parents,
                  random_scm, sample)
from .transport import transport_adjust

__version__ = "0.1.0"

__all__ = [
    "EmpiricalSample", "Gaussian1D", "fit_gaussian", "frechet_gaussian1d",
    "ksample_equality_test",
    "ExperimentConfig", "Report", "RunRecord", "aggregate_cells",
    "environments_for", "fwer", "jaccard", "read_records_csv",
    "run_experiment", "write_records_csv", "write_report_json",
    "EnumerationBudgetError", "IcpConfig", "IcpResult", "icp_identify",
    "invariance_pvalue",
    "IdentificationResult", "Regressor", "TrainConfig",
    "TrainingDivergedError", "identify_parents", "penalty_step",
    "train_regressor",
    "Environment", "GenConfig", "GenerationError", "Intervention",
    "LinearGaussianScm", "SampleBatch", "add_confounders", "analytic_moments",
    "four_node_demo_scm", "intervene", "parents", "random_scm", "sample",
    "transport_adjust",
    "__version__",
]
