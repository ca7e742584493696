"""Telemetry instrumentation of the fault/checkpoint subsystem.

Checkpoint capture/save/load/verify/restore report per-operation
counters and timing histograms; fault campaigns report per-outcome
counters and per-run durations -- the data behind
``tangled faults --stats``.
"""

import numpy as np
import pytest

from repro import obs
from repro.cpu import FunctionalSimulator
from repro.errors import CheckpointError
from repro.faults.campaign import run_campaign
from repro.faults.checkpoint import AutoCheckpointer, Checkpoint


def _halted_sim():
    from repro.asm import assemble

    sim = FunctionalSimulator(ways=8)
    sim.load(assemble("lex $0, 5\nlex $rv, 0\nsys\n"))
    sim.run()
    return sim


class TestCheckpointTelemetry:
    def test_lifecycle_counters_and_timings(self, tmp_path):
        sim = _halted_sim()
        path = str(tmp_path / "cp.npz")
        with obs.capture(tracing=False) as telemetry:
            cp = Checkpoint.take(sim.machine)
            cp.save(path)
            loaded = Checkpoint.load(path)
            assert loaded.verify()
            loaded.restore(sim.machine)
        m = telemetry.metrics
        for op in ("capture", "save", "load", "verify", "restore"):
            assert m.value(f"checkpoint.{op}") >= 1, op
            hist = m.get(f"checkpoint.{op}_seconds")
            assert hist is not None and hist.count >= 1, op
        assert m.value("checkpoint.verify_failures") == 0

    def test_failed_verify_and_restore_counted(self):
        sim = _halted_sim()
        with obs.capture(tracing=False) as telemetry:
            cp = Checkpoint.take(sim.machine)
            cp.regs[0] ^= np.uint16(1)  # corrupt after capture
            assert not cp.verify()
            with pytest.raises(CheckpointError):
                cp.restore(sim.machine)
        m = telemetry.metrics
        assert m.value("checkpoint.verify_failures") >= 1
        assert m.value("checkpoint.restore_failures") == 1

    def test_failed_load_counted(self, tmp_path):
        bad = tmp_path / "garbage.npz"
        bad.write_bytes(b"not a checkpoint")
        with obs.capture(tracing=False) as telemetry:
            with pytest.raises(CheckpointError):
                Checkpoint.load(str(bad))
        assert telemetry.metrics.value("checkpoint.load_failures") == 1

    def test_auto_checkpointer_still_counts_taken(self):
        sim = _halted_sim()
        auto = AutoCheckpointer(interval=2, keep=2)
        with obs.capture(tracing=False) as telemetry:
            for _ in range(6):
                auto.tick(sim.machine)
        assert telemetry.metrics.value("checkpoint.taken") == 3
        assert telemetry.metrics.value("checkpoint.capture") == 3

    def test_uninstrumented_when_disabled(self, tmp_path):
        # No telemetry installed: the hooks must stay silent no-ops.
        sim = _halted_sim()
        cp = Checkpoint.take(sim.machine)
        assert cp.verify()
        assert obs.current() is None


class TestCampaignTelemetry:
    def test_per_outcome_counters_and_run_timing(self):
        with obs.capture(tracing=False) as telemetry:
            report = run_campaign(runs=6, seed=7)
        m = telemetry.metrics
        summary = report["summary"]
        for outcome in ("detected", "masked", "silent"):
            assert m.value(f"faults.{outcome}") == summary[outcome]
        assert m.value("faults.runs") == 6
        # Runs 2-4 are proven masked from the golden run: settled, not
        # simulated, so the run-time histogram sees the other three.
        assert m.value("faults.pruned") == 3
        hist = m.get("faults.run_seconds")
        assert hist is not None and hist.count == 3

    def test_stats_report_lists_fault_counters(self):
        with obs.capture(tracing=False) as telemetry:
            run_campaign(runs=3, seed=1)
        text = telemetry.report()
        assert "faults.runs = 3" in text
        assert "faults.run_seconds" in text

    def test_campaign_report_unchanged_by_telemetry(self):
        baseline = run_campaign(runs=4, seed=11)
        with obs.capture(tracing=False):
            instrumented = run_campaign(runs=4, seed=11)
        assert baseline == instrumented
