"""Tests for the network model and LTTR/TTA accounting on the virtual
clock it feeds."""

from __future__ import annotations

import pytest

from repro.comm.network import TMOBILE_5G, NetworkModel
from repro.experiments import run_experiment
from repro.experiments.results import RunResult
from repro.fl.metrics import History, RoundRecord
from repro.fl.systems import ClientArrival


class TestNetworkModel:
    def test_paper_constants(self):
        assert TMOBILE_5G.downlink_mbps == 110.6
        assert TMOBILE_5G.uplink_mbps == 14.0
        assert TMOBILE_5G.asymmetry == pytest.approx(7.9, abs=0.01)

    def test_upload_seconds(self):
        net = NetworkModel(downlink_mbps=100.0, uplink_mbps=10.0)
        assert net.upload_seconds(10e6) == pytest.approx(1.0)
        assert net.download_seconds(100e6) == pytest.approx(1.0)

    def test_latency_added(self):
        net = NetworkModel(100.0, 10.0, latency_seconds=0.05)
        assert net.upload_seconds(0) == pytest.approx(0.05)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            NetworkModel(0.0, 10.0)


def history_with(accs, round_seconds=1.0, lttr=0.5):
    """A history whose virtual clock advances ``round_seconds`` a round."""
    h = History("m", "t")
    for i, acc in enumerate(accs, start=1):
        h.append(
            RoundRecord(
                round_index=i,
                train_loss=1.0,
                test_loss=1.0,
                test_accuracy=acc,
                upload_bits_mean=1_000_000,
                upload_bits_total=3_000_000,
                download_bits_per_client=1_000_000,
                n_selected=3,
                lttr_seconds_mean=lttr,
                sim_round_seconds=round_seconds,
                sim_clock_seconds=round_seconds * i,
            )
        )
    return h


class TestTiming:
    def test_round_timings_composition(self):
        net = NetworkModel(downlink_mbps=8.0, uplink_mbps=8.0)
        t = ClientArrival(
            client_id=0,
            download_seconds=net.download_seconds(8e6),
            compute_seconds=2.0,
            upload_seconds=net.upload_seconds(8e6),
        )
        assert t.upload_seconds == pytest.approx(1.0)
        assert t.download_seconds == pytest.approx(1.0)
        assert t.total_seconds == pytest.approx(2.0 + 1.0 + 1.0)

    def test_lttr_mean(self):
        h = history_with([0.1, 0.2], lttr=0.25)
        r = RunResult(task_name="t", method_spec="m", history=h, dense_bits=1)
        assert r.lttr == pytest.approx(0.25)

    def test_tta_reaches_target(self):
        net = NetworkModel(10.0, 10.0)
        round_seconds = 1.0 + net.download_seconds(1e6) + net.upload_seconds(1e6)
        h = history_with([0.2, 0.5, 0.9], round_seconds=round_seconds)
        assert h.time_to_accuracy(0.5) == pytest.approx(2 * (1.0 + 0.1 + 0.1))

    def test_smaller_upload_less_tta(self):
        """FedBIAD's row dropout shrinks the upload, so on the ideal
        system (same compute, same link) its first evaluated round
        lands earlier on the virtual clock than dense FedAvg's."""
        overrides = {"rounds": 1, "local_iterations": 2}
        dense = run_experiment("mnist", "fedavg", scale="small", config_overrides=overrides)
        sparse = run_experiment("mnist", "fedbiad", scale="small", config_overrides=overrides)
        assert sparse.upload_bits < dense.upload_bits
        assert sparse.tta(0.0) < dense.tta(0.0)
