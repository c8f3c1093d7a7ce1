"""Federated multi-label human activity recognition.

A small numpy-only stack: a reverse-mode autodiff core, a causal
transformer over per-minute sensor features with a tanh multi-label head,
centralized pretraining, and FedAvg fine-tuning that runs either in
process or over TCP.
"""

__version__ = "0.1.0"

from .errors import (AggregationError, AvailabilityError, ConfigError,
                     DecodeError, DegenerateBatchError, DegenerateReportError,
                     FedharError, FormatError, ProtocolError, ShapeError)
from .tensor import Adam, Tensor, backward
from .model import (ModelConfig, WeightSet, forward, init_model,
                    masked_weighted_loss, parameter_shapes, predict)
from .data import (EXTRASENSORY_FEATURES, EXTRASENSORY_LABELS, FoldPlan,
                   Standardizer, SubjectRecord, SyntheticSpec, Window,
                   apply_standardizer, build_fold_plan, carve_validation,
                   fit_standardizer, gen_synthetic, load_subject_dir,
                   make_windows, parse_extrasensory_csv, split_train_test,
                   write_subject_csv)
from .metrics import (ClientReport, ConfusionCounts, FoldReport,
                      balanced_accuracy, client_mean_ba, fold_summary)
from .training import (SearchSpace, TrainConfig, Trial, compute_pos_weight,
                       evaluate, random_search, train)
from .fedavg import (ClientUpdate, FedConfig, FoldResult, aggregate,
                     client_fit, drive_fold, run_cross_validation, run_fold,
                     select_clients)
from .wire import (client_loop, decode_weights, encode_weights,
                   load_checkpoint, save_checkpoint, server_loop,
                   standardizer_path)
from .util import derive_seed

__all__ = [
    "__version__",
    # errors
    "FedharError", "ShapeError", "ConfigError", "FormatError",
    "DegenerateBatchError", "DegenerateReportError", "AvailabilityError",
    "AggregationError", "ProtocolError", "DecodeError",
    # autodiff
    "Tensor", "backward", "Adam",
    # model
    "ModelConfig", "WeightSet", "parameter_shapes", "init_model", "forward",
    "predict", "masked_weighted_loss",
    # data
    "EXTRASENSORY_FEATURES", "EXTRASENSORY_LABELS", "SubjectRecord",
    "parse_extrasensory_csv", "write_subject_csv", "load_subject_dir",
    "FoldPlan", "build_fold_plan", "Standardizer", "fit_standardizer",
    "apply_standardizer", "Window", "make_windows", "split_train_test",
    "carve_validation", "SyntheticSpec", "gen_synthetic",
    # metrics
    "ConfusionCounts", "balanced_accuracy", "client_mean_ba", "ClientReport",
    "FoldReport", "fold_summary",
    # training
    "TrainConfig", "compute_pos_weight", "train", "evaluate", "SearchSpace",
    "Trial", "random_search",
    # fedavg
    "FedConfig", "ClientUpdate", "FoldResult", "select_clients", "aggregate",
    "client_fit", "drive_fold", "run_fold", "run_cross_validation",
    # wire
    "encode_weights", "decode_weights", "save_checkpoint", "load_checkpoint",
    "standardizer_path", "server_loop", "client_loop",
    # util
    "derive_seed",
]
