"""Method registry: name -> federated method factory."""

from __future__ import annotations

from typing import Callable

from ..core.client import FedBIAD
from ..fl.client import FederatedMethod
from .afd import AFD
from .fedavg import FedAvg
from .feddrop import FedDrop
from .fedmp import FedMP
from .fjord import Fjord
from .heterofl import HeteroFL

__all__ = ["METHOD_NAMES", "make_method"]

_FACTORIES: dict[str, Callable[..., FederatedMethod]] = {
    "fedavg": FedAvg,
    "fedbiad": FedBIAD,
    "feddrop": FedDrop,
    "afd": AFD,
    "fedmp": FedMP,
    "fjord": Fjord,
    "heterofl": HeteroFL,
}

METHOD_NAMES = tuple(_FACTORIES)


def make_method(name: str, **kwargs) -> FederatedMethod:
    """Instantiate a federated method by registry name.

    >>> make_method("fedbiad", use_stage2=False)
    >>> make_method("fjord", widths=[0.25, 0.5, 1.0])
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown method {name!r}; choose from {tuple(_FACTORIES)}") from None
    return factory(**kwargs)
