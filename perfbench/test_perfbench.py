"""Self-tests for the benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q

The smoke tests run every workload at a tiny size against the real
program; the failure tests run the benchmark in a scratch checkout whose
``src`` is a stub that gets one thing wrong.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

from workloads import WORKLOADS, check_fig10_output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)

GOOD_FIG10 = (
    "Figure 10 on the pipelined simulator (dense (8-way) Qat):\n"
    "  $0 = 5   $1 = 3\n"
    "  {'cycles': 167, 'retired': 92, 'cpi': 1.8152, 'traps': 0}\n"
)


def _bench(root: str, workload: str, trace: int = 0, *extra: str,
           seconds: float = 0.1):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", str(seconds),
         "--trace", str(trace), *extra],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def _names(section: str) -> list[str]:
    return [metric["name"] for metric in DECLARED[section]]


def test_declared_workloads_match_the_table():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc, result = _bench(ROOT, workload, trace, "--runs", "16")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == _names(section)
    units = {m["name"]: m["unit"] for m in DECLARED[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fig10_check_rejects_wrong_factors_and_stats():
    assert check_fig10_output(0, GOOD_FIG10, "") is None
    assert "factor line" in check_fig10_output(
        0, GOOD_FIG10.replace("$1 = 3", "$1 = 4"), "")
    assert "cpi" in check_fig10_output(
        0, GOOD_FIG10.replace("1.8152", "1.8153"), "")
    assert "exit status" in check_fig10_output(1, GOOD_FIG10, "boom")
    assert "stderr" in check_fig10_output(0, GOOD_FIG10, "tangled: ledger: x")


def _stub_checkout(tmp_path, files: dict[str, str]) -> str:
    root = str(tmp_path / "checkout")
    shutil.copytree(HERE, os.path.join(root, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    for rel, text in files.items():
        path = os.path.join(root, "src", rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(textwrap.dedent(text))
    return root


def _assert_failed(proc, result):
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert result["correct"] is False and result["metrics"] == {}
    assert "FAILED" in proc.stdout


def test_wrong_factor_line_fails_the_run(tmp_path):
    wrong = GOOD_FIG10.replace("$0 = 5", "$0 = 7")
    root = _stub_checkout(tmp_path, {
        "repro/__init__.py": "",
        "repro/cli.py": f"""
            import sys
            sys.stdout.write({wrong!r})
        """,
    })
    proc, result = _bench(root, "fig10-cli")
    _assert_failed(proc, result)
    assert "factor line" in proc.stdout


_CAMPAIGN_STUB = {
    "repro/__init__.py": "",
    "repro/cli.py": "",
    "repro/apps/__init__.py": "def fig10_program():\n    return None\n",
    "repro/obs/__init__.py": "",
    "repro/obs/progress.py": """
        class ProgressTracker:
            def __init__(self, total, what="runs"):
                self.workers, self.supervisor = {}, {}
    """,
}


def _campaign_stub(report_expr: str) -> dict:
    return dict(_CAMPAIGN_STUB, **{
        "repro/faults/__init__.py": "",
        "repro/faults/campaign.py": f"""
            import json
            CALLS = []

            def run_campaign(program, runs, seed, ways, qat_backend, sim,
                             jobs=1, batch=1, tracker=None):
                CALLS.append(1)
                return {{"golden": {{"r0": 5, "r1": 3}},
                        "summary": {{"toxic": 0}},
                        "detail": {report_expr}}}

            def render_report(report):
                return json.dumps(report, sort_keys=True) + "\\n"
        """,
    })


def test_report_mismatch_across_strategies_fails_the_run(tmp_path):
    root = _stub_checkout(tmp_path, _campaign_stub("batch"))
    proc, result = _bench(root, "campaign-dense-batch")
    _assert_failed(proc, result)
    assert "differs from the" in proc.stdout


def test_report_changing_between_calls_fails_the_run(tmp_path):
    root = _stub_checkout(tmp_path, _campaign_stub("len(CALLS)"))
    # Long enough for a second pass over the sub-campaigns.
    proc, result = _bench(root, "campaign-dense-pipelined", seconds=1.0)
    _assert_failed(proc, result)
    assert "differs from its first call" in proc.stdout


def test_without_program_source_exits_nonzero_silently(tmp_path):
    root = _stub_checkout(tmp_path, {})
    proc, result = _bench(root, "fig10-cli")
    assert proc.returncode != 0 and result is None
