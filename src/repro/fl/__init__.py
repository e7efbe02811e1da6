"""Federated-learning simulation substrate."""

from .aggregation import AGGREGATION_MODES, ClientPayload, aggregate
from .checkpoints import (
    dumps_nan_safe,
    history_from_payload,
    history_to_payload,
    load_history,
    load_params,
    restore_checkpoint,
    save_checkpoint,
    save_history,
    save_params,
)
from .client import ClientContext, ClientUpdate, FederatedMethod, run_local_sgd
from .config import FLConfig
from .engine import ClientResult
from .metrics import History, RoundRecord, evaluate, topk_accuracy
from .parameters import ParamSet
from .rows import RowBlock, RowSpace
from .simulation import FederatedSimulation, run_simulation
from .systems import (
    DEVICE_PROFILES,
    LAZY_AVAILABILITY_THRESHOLD,
    SYSTEM_NAMES,
    Availability,
    ClientArrival,
    SystemModel,
    VirtualClock,
    make_system,
    sample_index_cohort,
)
from .sizing import (
    FLOAT_BITS,
    POSITION_BITS,
    bits_to_bytes,
    dense_bits,
    element_masked_bits,
    format_bytes,
    masked_bits,
    quantized_bits,
    sign_bits,
    sparse_bits,
    ternary_sparse_bits,
)

__all__ = [
    "AGGREGATION_MODES",
    "ClientPayload",
    "aggregate",
    "dumps_nan_safe",
    "history_from_payload",
    "history_to_payload",
    "load_history",
    "load_params",
    "restore_checkpoint",
    "save_checkpoint",
    "save_history",
    "save_params",
    "ClientContext",
    "ClientUpdate",
    "FederatedMethod",
    "run_local_sgd",
    "FLConfig",
    "History",
    "RoundRecord",
    "evaluate",
    "topk_accuracy",
    "ParamSet",
    "RowBlock",
    "RowSpace",
    "FederatedSimulation",
    "run_simulation",
    "ClientResult",
    "DEVICE_PROFILES",
    "SYSTEM_NAMES",
    "ClientArrival",
    "Availability",
    "LAZY_AVAILABILITY_THRESHOLD",
    "sample_index_cohort",
    "SystemModel",
    "VirtualClock",
    "make_system",
    "FLOAT_BITS",
    "POSITION_BITS",
    "bits_to_bytes",
    "dense_bits",
    "element_masked_bits",
    "format_bytes",
    "masked_bits",
    "quantized_bits",
    "sign_bits",
    "sparse_bits",
    "ternary_sparse_bits",
]
