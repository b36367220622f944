"""idpskit: KDD99 intrusion detection and prevention toolkit.

Pipeline: ingest KDD99 records, encode and split, train an MLP classifier
with early stopping, evaluate (confusion / ROC / alarms), quantize to a
fixed-point inference engine, and stream records through a policy engine.
"""

from .exceptions import (
    DegenerateClassError,
    DegenerateSplitError,
    EmptyDatasetError,
    EmptyLabelError,
    FieldCountError,
    IdpsError,
    ModelFormatError,
    NumericParseError,
    RangeExceededError,
    TrainingDivergedError,
    UnknownSymbolError,
)
from .schema import (
    AttackTaxonomy,
    FeatureSchema,
    default_schema,
    default_taxonomy,
    load_schema,
    load_taxonomy,
    save_schema,
    save_taxonomy,
)
from .ingest import (
    Dataset,
    RawRecord,
    encode_record,
    format_record,
    load_dataset,
    map_attack,
    parse_record,
)
from .preprocessing import (
    RangeScaler,
    SplitSpec,
    fit_scaler,
    one_hot,
    split_dataset,
)
from .mlp import (
    MLPClassifier,
    Network,
    NetworkLayout,
    TrainConfig,
    TrainHistory,
    backward,
    forward,
    init_network,
    loss_mse,
    predict_class,
    train,
)
from .metrics import (
    AlarmTally,
    EvaluationReport,
    RocCurve,
    accuracy,
    alarm_outcome,
    alarm_tally,
    auc_pair_count,
    confusion,
    evaluate,
    roc,
)
from .fixedpoint import (
    FixedFormat,
    QNetwork,
    from_fixed,
    lut_tanh,
    q_forward,
    q_forward_batch,
    q_predict_class,
    quantize_network,
    to_fixed,
)
from .model_io import (
    ModelBundle,
    load_model,
    load_qmodel,
    save_model,
    save_qmodel,
)
from .engine import Policy, StreamSummary, Verdict, decide, default_policy, process_stream

__version__ = "0.1.0"
