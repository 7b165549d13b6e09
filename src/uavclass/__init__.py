"""UAV type classification from PX4 ULog flight logs."""

from .errors import UavclassError
from .ulog import (
    BadMagic,
    FlightLog,
    TopicSeries,
    UlogError,
    VehicleType,
    extract_vehicle_type,
    parse_ulog,
)
from .cache import iter_logs, read_cache, write_cache
from .features import (
    BASELINE_SUBSET,
    FeatureKey,
    FeatureSubset,
    assemble_features,
    compute_coverage,
    prune_by_coverage,
    quaternion_to_euler,
)
from .resample import Dataset, SampledInstance, SamplingConfig, Scaler
from .balance import (
    AugmentSpec,
    BalanceConfig,
    assert_test_fold_purity,
    augment_timeseries,
    cluster_centroid_undersample,
    random_oversample,
    random_undersample,
    rebalance,
    smote_oversample,
)
from .lstm import AdamState, LstmParams, TrainConfig, adam_step, backward, train
from .evaluate import (
    TrialReport,
    baseline_scores,
    class_metrics,
    confusion,
    macro_f,
    stratified_kfold,
)
from .synth import SynthSpec, generate_corpus, generate_flight, write_ulog
from .pipeline import build_dataset, run_trial

__version__ = "0.1.0"
