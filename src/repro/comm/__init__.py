"""The paper's 5G link model: the base link every system model scales
per client on the virtual clock (time-to-accuracy is read off that
clock, :meth:`repro.fl.metrics.History.time_to_accuracy`)."""

from .network import TMOBILE_5G, NetworkModel

__all__ = ["TMOBILE_5G", "NetworkModel"]
