"""Wireless link model for transmission-time simulation.

The paper simulates parameter transfer over the T-Mobile 5G network
measured by OpenSignal (Jan 2022): 110.6 Mbps downlink, 14.0 Mbps
uplink.  The ~8x asymmetry is what makes the *uplink* the bottleneck
(Section I) and what FedBIAD's row dropout attacks.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkModel", "TMOBILE_5G"]


@dataclass(frozen=True)
class NetworkModel:
    """A symmetric-latency, asymmetric-bandwidth wireless link."""

    downlink_mbps: float
    uplink_mbps: float
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.downlink_mbps <= 0 or self.uplink_mbps <= 0:
            raise ValueError("link rates must be positive")

    def upload_seconds(self, bits: float) -> float:
        """Time to push ``bits`` through the uplink."""
        return self.latency_seconds + bits / (self.uplink_mbps * 1e6)

    def download_seconds(self, bits: float) -> float:
        """Time to pull ``bits`` through the downlink."""
        return self.latency_seconds + bits / (self.downlink_mbps * 1e6)

    @property
    def asymmetry(self) -> float:
        """Down/up bandwidth ratio (~7.9 for the paper's 5G link)."""
        return self.downlink_mbps / self.uplink_mbps


#: The paper's link: the base every system model scales per client.
TMOBILE_5G = NetworkModel(downlink_mbps=110.6, uplink_mbps=14.0)
