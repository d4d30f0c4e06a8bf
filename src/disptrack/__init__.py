"""Multi-target detection and tracking with distinguishable and independent
stochastic populations.

The filter keeps one track per distinguishable target (a target identified
by the observations it has produced) and one weighted hypothesis per
consistent subset of tracks; previously unseen targets appear through a
single indistinguishable population with a known cardinality distribution
and a shared spatial prior.
"""

from .models import (
    AssociationImpossibleError,
    AugmentedDistribution,
    BirthModel,
    GaussianComponent,
    ModelConfigError,
    MotionModel,
    Observation,
    SensorModel,
    StateSpace,
    moment_match,
    predictive_likelihood,
)
from .single_target import (
    MISSED,
    birth_posterior,
    missdetection_mass,
    predict_distribution,
    update_distribution,
)
from .engine import (
    DegenerateUpdateError,
    FilterState,
    Hypothesis,
    HypothesisBudgetError,
    ObservationPath,
    Track,
    compatible,
    init_filter,
    is_consistent,
    newborn_path,
    predict,
    track_existence,
    update,
)
from .approximations import (
    ApproximationConfig,
    DEFAULT_PIPELINE,
    apply_pipeline,
    cap_counts,
    make_gate,
    merge_tracks,
    prune_by_existence,
    prune_by_presence,
)
from .estimation import (
    ExtractionConfig,
    TrackEstimate,
    extract_tracks,
    map_hypothesis,
    point_estimate,
)
from .oracles import (
    Association,
    association_weight,
    enumerate_associations,
    oracle_consistent_subsets,
    oracle_joint_posterior,
)
from .config import ConfigError, ScenarioConfig, load_config
from .simulation import GroundTruth, TruthTarget, simulate
from .runner import RunReport, ScanRecord, filter_scans, metrics, run

__version__ = "0.1.0"

__all__ = [
    "AssociationImpossibleError",
    "AugmentedDistribution",
    "BirthModel",
    "GaussianComponent",
    "ModelConfigError",
    "MotionModel",
    "Observation",
    "SensorModel",
    "StateSpace",
    "missdetection_mass",
    "moment_match",
    "predictive_likelihood",
    "MISSED",
    "birth_posterior",
    "predict_distribution",
    "update_distribution",
    "DegenerateUpdateError",
    "FilterState",
    "Hypothesis",
    "HypothesisBudgetError",
    "ObservationPath",
    "Track",
    "compatible",
    "init_filter",
    "is_consistent",
    "newborn_path",
    "predict",
    "track_existence",
    "update",
    "ApproximationConfig",
    "DEFAULT_PIPELINE",
    "apply_pipeline",
    "cap_counts",
    "make_gate",
    "merge_tracks",
    "prune_by_existence",
    "prune_by_presence",
    "ExtractionConfig",
    "TrackEstimate",
    "extract_tracks",
    "map_hypothesis",
    "point_estimate",
    "Association",
    "association_weight",
    "enumerate_associations",
    "oracle_consistent_subsets",
    "oracle_joint_posterior",
    "ConfigError",
    "ScenarioConfig",
    "load_config",
    "GroundTruth",
    "TruthTarget",
    "simulate",
    "RunReport",
    "ScanRecord",
    "filter_scans",
    "metrics",
    "run",
]
