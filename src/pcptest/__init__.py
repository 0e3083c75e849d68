"""Machine-learning test of the positive correlation property.

Weighted 4-way classifiers estimate joint coverage/claim probabilities on
categorical rating cells; covariance and correlation functionals of those
probabilities are debiased and fed to intersection tests, whose critical
values come from Monte Carlo normal draws, and to the sorted-groups test.
"""

__version__ = "1.0.0"

from .data import (
    CategoricalSchema,
    DataError,
    Dataset,
    FoldAssignment,
    SplitPlan,
    default_schema,
    load_csv,
    make_folds,
    partition,
    save_csv,
    split,
)
from .functionals import PerObsStats, group_estimates, group_means, per_obs_stats
from .network import NetworkConfig
from .synth import GroundTruth, RhoSpec, SyntheticDGP, WeightLaw, sample_dataset
from .trees import BoostConfig, ForestConfig

__all__ = [
    "CategoricalSchema",
    "DataError",
    "Dataset",
    "FoldAssignment",
    "SplitPlan",
    "default_schema",
    "load_csv",
    "make_folds",
    "partition",
    "save_csv",
    "split",
    "PerObsStats",
    "group_estimates",
    "group_means",
    "per_obs_stats",
    "NetworkConfig",
    "GroundTruth",
    "RhoSpec",
    "SyntheticDGP",
    "WeightLaw",
    "sample_dataset",
    "BoostConfig",
    "ForestConfig",
    "__version__",
]
