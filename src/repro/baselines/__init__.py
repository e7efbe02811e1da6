"""Baseline federated methods compared against FedBIAD in the paper."""

from .afd import AFD
from .fedavg import FedAvg
from .feddrop import FedDrop, model_hidden_widths
from .fedmp import FedMP, magnitude_masks
from .fjord import Fjord, ordered_model_masks
from .heterofl import HeteroFL
from .masks import (
    kept_entries,
    lstm_unit_masks,
    mlp_unit_masks,
    ordered_keep,
    random_keep,
)
from .registry import METHOD_NAMES, make_method

__all__ = [
    "AFD",
    "FedAvg",
    "FedDrop",
    "FedMP",
    "Fjord",
    "HeteroFL",
    "model_hidden_widths",
    "magnitude_masks",
    "ordered_model_masks",
    "kept_entries",
    "lstm_unit_masks",
    "mlp_unit_masks",
    "ordered_keep",
    "random_keep",
    "METHOD_NAMES",
    "make_method",
]
