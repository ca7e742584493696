"""Campaign drive: fast segments between fault events vs per-step drive.

Serial and ``--jobs`` campaigns on the functional and multi-cycle
simulators run the predecoded fast loop between fault events
(:func:`repro.faults.campaign._drive`).  Forcing the per-step drive
(``fastpath.ENABLED = False``, what ``REPRO_FASTPATH=0`` sets) must give
byte-identical reports: outcomes, trap records (cause, PC, cycle,
instret, detail) and error strings.
"""

import pytest

from repro.cpu import fastpath
from repro.faults.campaign import render_report, run_campaign

TARGETS = ("gpr", "mem", "qreg", "pc", "latch")
SUBSTRATES = [("dense", 8), ("re", 12)]
RUNS = 100


def _campaign(sim, backend, ways, faults_per_run):
    return run_campaign(runs=RUNS, seed=13, sim=sim, ways=ways,
                        qat_backend=backend, faults_per_run=faults_per_run,
                        targets=TARGETS)


@pytest.mark.parametrize("faults_per_run", [1, 3, 6])
@pytest.mark.parametrize("sim", ["functional", "multicycle"])
@pytest.mark.parametrize("backend,ways", SUBSTRATES)
def test_fast_segments_match_per_step_drive(monkeypatch, backend, ways, sim,
                                            faults_per_run):
    fast = render_report(_campaign(sim, backend, ways, faults_per_run))
    monkeypatch.setattr(fastpath, "ENABLED", False)
    report = _campaign(sim, backend, ways, faults_per_run)
    assert render_report(report) == fast
    # The comparison must cover trapping runs, or it proves little.
    causes = {trap["cause"] for run in report["runs_detail"]
              for trap in run["traps"]}
    assert {"watchdog", "illegal_opcode"} <= causes
