"""Faulted runs forked from the golden cursor (:mod:`repro.faults.campaign`).

:func:`~repro.faults.campaign._single_run` starts a run from a fork of
the golden run at its first fault event instead of re-simulating the
fault-free prefix.  The gate: every task's result -- report detail, step
count and the run's flight-recorder segment -- equals a cold run (fresh
simulator, ``load``, :func:`~repro.faults.campaign._drive` from step 0),
on every simulator and Qat substrate; a fork never leaks state into the
cursor or a sibling fork; and a task behind the cursor rewinds it.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.asm import assemble
from repro.errors import EncodingError, ReproError
from repro.faults import campaign
from repro.faults.campaign import golden_run, run_campaign
from repro.faults.inject import FaultEvent, FaultPlan
from repro.faults.prune import AccessIndex
from repro.isa.encoding import decode
from repro.obs import flight
from tests.test_prune import _UNDER_TEST, _program, _random_campaign_program

SIMS = ("functional", "multicycle", "pipelined")
SUBSTRATES = (("dense", 8), ("re", 12))
TARGETS = ("gpr", "mem", "qreg", "pc", "latch")


@pytest.fixture(autouse=True)
def _fresh_campaign_state(monkeypatch):
    """An enabled flight ring large enough to hold every event, and no
    cursor, template or image left over from another test."""
    monkeypatch.setattr(flight, "RECORDER",
                        flight.FlightRecorder(capacity=1 << 20))
    campaign._CURSORS.clear()
    yield
    campaign._CURSORS.clear()
    campaign._RE_TEMPLATES.clear()
    campaign._WORKER_IMAGES.clear()


@contextlib.contextmanager
def _recording():
    """Yield a list that receives the ring's events appended in the block."""
    ring = flight.RECORDER.events
    start = len(ring)
    events: list[tuple] = []
    yield events
    events.extend(ring[start:])


def _tasks(program, sim, ways, qat_backend, runs=12, seed=5,
           faults_per_run=1, targets=TARGETS):
    image = campaign._worker_image(program)
    golden, steps = golden_run(image, sim=sim, ways=ways,
                               qat_backend=qat_backend)
    return campaign._campaign_tasks(program, image, golden, steps, runs,
                                    seed, sim, ways, faults_per_run,
                                    targets, qat_backend)


def _cold(task):
    """``(detail, steps, flight events)`` of ``task`` run from step 0."""
    run, program, sim, ways, qat_backend, plan, golden, watchdog = task
    subject = campaign._new_simulator(sim, ways, None, qat_backend=(
        campaign._run_qat(program, sim, ways, qat_backend)))
    subject.load(campaign._worker_image(program))
    steps, error = 0, None
    with _recording() as events:
        try:
            steps = campaign._drive(subject, plan, watchdog)
        except ReproError as exc:
            error = str(exc)
    machine = subject.machine
    detail = campaign._classify(run, plan, error, machine.traps,
                                campaign._architectural_result(machine),
                                golden)
    return detail, steps, events


def _forked(task):
    """``(detail, steps, flight events after the run mark)`` of ``task``
    on :func:`campaign._single_run`."""
    with _recording() as events:
        run, detail, _, steps, _ = campaign._single_run(task)
    assert run == task.run
    kind, _, (label, _) = events[0]
    assert (kind, label) == (flight.MARK, "campaign.run")
    return detail, steps, events[1:]


def _assert_forks_match_cold(tasks) -> list[dict]:
    """Run ``tasks`` in the serial campaign's order, each against its
    cold run; returns the details of the runs forked past step 0."""
    for task in tasks:  # RE templates: built before any recording
        campaign._run_qat(task.program, task.sim, task.ways,
                          task.qat_backend)
    forked = []
    for task in sorted(tasks, key=lambda t: (campaign._first_event(t),
                                             t.run)):
        got = _forked(task)
        assert got == _cold(task), task
        if campaign._first_event(task) > 0:
            forked.append(got[0])
    return forked


class TestForkMatchesColdRun:
    @pytest.mark.parametrize("faults_per_run", [1, 3])
    @pytest.mark.parametrize("qat_backend,ways", SUBSTRATES)
    @pytest.mark.parametrize("sim", SIMS)
    @pytest.mark.parametrize("program", ["fig10", "factor"])
    def test_campaign_programs(self, program, sim, qat_backend, ways,
                               faults_per_run):
        tasks = _tasks(program, sim, ways, qat_backend,
                       faults_per_run=faults_per_run)
        forked = _assert_forks_match_cold(tasks)
        # The forked runs include some that do not replay the golden run.
        assert {detail["outcome"] for detail in forked} - {"masked"}

    @settings(max_examples=20, deadline=None)
    @given(st.data(), st.sampled_from(SIMS), st.sampled_from(SUBSTRATES),
           st.sampled_from([1, 3]), st.integers(0, 1 << 16))
    def test_random_programs(self, data, sim, substrate, faults_per_run,
                             seed):
        qat_backend, _ = substrate
        words = _random_campaign_program(data)
        with _program(words):
            campaign._CURSORS.clear()
            tasks = _tasks(_UNDER_TEST, sim, 6, qat_backend, runs=8,
                           seed=seed, faults_per_run=faults_per_run)
            _assert_forks_match_cold(tasks)

    def test_zero_fault_plan_starts_cold(self):
        (task,) = _tasks("fig10", "pipelined", 8, "dense", runs=1,
                         faults_per_run=0)
        assert task.plan.events == ()
        assert _forked(task) == _cold(task)
        assert not campaign._CURSORS

    def test_telemetry_runs_start_cold(self):
        """Under ``--stats`` capture every run executes its whole
        prefix, so the counters count every instruction."""
        (task,) = _tasks("fig10", "functional", 8, "dense", runs=1)
        assert campaign._first_event(task) > 0
        with obs.capture(tracing=False):
            assert _forked(task) == _cold(task)
        assert not campaign._CURSORS


#: Words the sibling forks fight over: ``pop`` reads Qat register 3
#: into ``$1`` after the fork point, the run prints, and ``target`` is
#: the word a fault turns undecodable.
_ISOLATION_SOURCE = """
    had @3, 2
    lex $1, 0
    lex $2, 0
    lex $4, 1
    lex $5, 2
    lex $6, 3
    lex $7, 4
    lex $8, 5
    add $4, $5
    add $6, $7
    add $8, $4
    pop $2, @3
    add $1, $2
    lex $0, 7
    lex $rv, 1
    sys
    lex $9, 1
    lex $10, 2
target:
    lex $11, 3
    lex $rv, 0
    sys
"""

#: Every fork shares this first fault step: early, so the sibling forks
#: all run the prints, the ``pop`` and ``target`` after it.
_FORK_STEP = 3


def _isolation_tasks(sim, qat_backend):
    program = assemble(_ISOLATION_SOURCE)
    target = program.labels["target"]
    word = program.words[target]
    illegal = next(bit for bit in range(16)
                   if _undecodable(word ^ (1 << bit)))
    golden, steps = golden_run(program, sim=sim, ways=8,
                               qat_backend=qat_backend)
    watchdog = steps * 4 + 64

    def task(run, *events):
        plan = FaultPlan(seed=run, events=tuple(
            FaultEvent(_FORK_STEP, *event) for event in events))
        return campaign.RunTask(run, _UNDER_TEST, sim, 8, qat_backend,
                                plan, golden, watchdog)

    return program, [
        # Flips the word at ``target`` (the fork decodes it, trapping)
        # and a bit of the Qat register ``pop`` reads (an RE run split).
        task(0, ("mem", target, 0, illegal), ("qreg", 3, 0, 1)),
        # Corrupts a pipeline latch (a PC flip off the pipeline).
        task(1, ("latch", 1, 0, 2)),
        # Benign (``$9`` is overwritten): must see none of the above.
        task(2, ("gpr", 9, 0, 0)),
    ]


def _undecodable(word: int) -> bool:
    try:
        decode([word, 0], 0)
    except EncodingError:
        return True
    return False


class TestForkIsolation:
    @pytest.mark.parametrize("qat_backend", ["dense", "re"])
    @pytest.mark.parametrize("sim", SIMS)
    def test_sibling_forks_share_nothing(self, sim, qat_backend):
        program, tasks = _isolation_tasks(sim, qat_backend)
        with _program(program):
            detail, _, events = _cold(tasks[0])
            # The first fork prints and then traps on the word it
            # flipped, both after the fork point.
            assert detail["traps"][0]["cause"] == "illegal_opcode"
            assert 1 in [service for kind, _, service in events
                         if kind == flight.SYSCALL]
            for task in tasks:
                assert _forked(task) == _cold(task), task.run
            assert _cold(tasks[2])[0]["outcome"] == "masked"

    @pytest.mark.parametrize("sim", SIMS)
    def test_rewind_behind_the_cursor(self, sim):
        forkable = sorted(
            (task for task in _tasks("fig10", sim, 8, "dense", runs=16)
             if campaign._first_event(task) > 0),
            key=campaign._first_event)
        early, late = forkable[0], forkable[-1]
        assert campaign._first_event(early) < campaign._first_event(late)
        assert _forked(late) == _cold(late)
        ahead = next(iter(campaign._CURSORS.values()))
        assert ahead.step == campaign._first_event(late)
        assert _forked(early) == _cold(early)
        rewound = next(iter(campaign._CURSORS.values()))
        assert rewound is not ahead
        assert rewound.step == campaign._first_event(early)


class TestFaultsPerRun:
    def test_negative_is_rejected(self):
        with pytest.raises(ReproError, match="faults_per_run"):
            run_campaign(runs=2, faults_per_run=-2)

    @pytest.mark.parametrize("sim", SIMS)
    def test_zero_is_masked_pruned_or_simulated(self, monkeypatch, sim):
        pruned = run_campaign(runs=4, sim=sim, faults_per_run=0)
        assert pruned["faults_per_run"] == 0
        assert pruned["summary"]["masked"] == 4
        calls = []
        real = campaign._single_run

        def counting(task, attempt=0):
            calls.append(task.run)
            return real(task, attempt)

        monkeypatch.setattr(AccessIndex, "masked", lambda self, plan: False)
        monkeypatch.setattr(campaign, "_single_run", counting)
        simulated = run_campaign(runs=4, sim=sim, faults_per_run=0)
        assert calls == [0, 1, 2, 3]
        assert simulated == pruned
