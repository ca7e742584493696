"""Batched simulator: lockstep equivalence with the serial fast path.

The contract of :mod:`repro.cpu.batch` is that N lanes stepped in
lockstep over NumPy arrays are architecturally indistinguishable from
N serial :class:`~repro.cpu.FunctionalSimulator` runs: same registers,
memory, Qat state, output, trap records (mapped per lane), same error
strings for parked lanes, and -- the bar the campaign driver relies on
-- byte-identical campaign reports for ``--batch N`` vs serial.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro import obs
from repro.cpu import BatchFunctionalSimulator, FunctionalSimulator
from repro.cpu.batch import BatchREQat
from repro.cpu.qat_backend import REQatBackend
from repro.errors import ReproError, SimulatorError
from repro.faults.campaign import render_report, run_campaign
from repro.faults.inject import FaultPlan, apply_event
from repro.faults.traps import TrapCause, TrapDelivered, TrapPolicy
from repro.isa import Instr, encode
from repro.isa.registers import RV

from tests.test_pipeline import QAT3, SAFE_ALU, SAFE_UNARY, random_program

BACKENDS = ["dense", "re"]

#: Every architectural fault target the functional simulator honours.
ALL_TARGETS = ("gpr", "mem", "qreg", "pc")


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _serial_run(words, plan, *, ways, backend, max_steps, trap_policy=None):
    """One serial lane: campaign-style drive with per-step fault events.

    Returns ``(sim, error)`` where ``error`` is the stringified trap
    for a run that died (what the batch engine parks the lane with).
    """
    sim = FunctionalSimulator(ways=ways, qat_backend=backend,
                              trap_policy=trap_policy)
    sim.load(list(words))
    error = None
    events = plan.events if plan is not None else ()
    due = 0
    step = 0
    try:
        while not sim.machine.halted:
            if step >= max_steps:
                try:
                    sim.machine.trap(
                        TrapCause.WATCHDOG,
                        detail=f"exceeded {max_steps} steps without halting",
                    )
                except TrapDelivered:
                    pass
                break
            while due < len(events) and events[due].step == step:
                apply_event(sim.machine, events[due])
                due += 1
            sim.step()
            step += 1
    except SimulatorError as exc:
        error = str(exc)
    return sim, error


def _batch_run(words, plans, *, ways, backend, max_steps, trap_policy=None):
    batch = BatchFunctionalSimulator(len(plans), ways=ways,
                                     qat_backend=backend,
                                     trap_policy=trap_policy)
    batch.load(list(words))
    batch.run(max_steps=max_steps, plans=plans)
    return batch


def _assert_lane_matches(sim, error, batch, lane) -> None:
    bm = batch.machines
    m = sim.machine
    assert np.array_equal(np.asarray(m.regs, dtype=np.uint16),
                          bm.regs[lane])
    assert np.array_equal(np.asarray(m.mem, dtype=np.uint16), bm.mem[lane])
    assert [r.as_dict() for r in m.traps] == \
        [r.as_dict() for r in bm.traps[lane]]
    assert list(m.output) == list(bm.output[lane])
    assert error == bm.errors[lane]
    if error is None:
        # A parked lane's pc/instret freeze where the trap fired, which
        # for a raising trap the serial path never observes.
        assert m.pc == int(bm.pc[lane])
        assert m.instret == int(bm.instret[lane])
        assert m.halted == bool(bm.halted[lane])
        assert [m.read_qreg(i) for i in range(256)] == \
            [bm.read_qreg(lane, i) for i in range(256)]


# ---------------------------------------------------------------------------
# State differential: random programs x fault plans x backends
# ---------------------------------------------------------------------------

class TestBatchVsSerialState:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_programs_lockstep(self, backend, data):
        words = random_program(data)
        lanes = 5
        plans = [None] * lanes
        batch = _batch_run(words, plans, ways=6, backend=backend,
                           max_steps=2000)
        sim, error = _serial_run(words, None, ways=6, backend=backend,
                                 max_steps=2000)
        for lane in range(lanes):
            _assert_lane_matches(sim, error, batch, lane)

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_programs_with_fault_plans(self, backend, data):
        """Each lane gets its own plan; serial lanes must match 1:1."""
        words = random_program(data)
        plans = [
            FaultPlan.from_seed(seed, n_faults=2, max_step=64, ways=6,
                                targets=("gpr", "mem", "qreg", "pc"))
            for seed in (data.draw(st.integers(0, 2**31)),
                         data.draw(st.integers(0, 2**31)),
                         None)
            if seed is not None
        ] + [None]
        batch = _batch_run(words, plans, ways=6, backend=backend,
                           max_steps=400)
        for lane, plan in enumerate(plans):
            sim, error = _serial_run(words, plan, ways=6, backend=backend,
                                     max_steps=400)
            _assert_lane_matches(sim, error, batch, lane)

    def test_divergent_lanes_park_independently(self):
        """A lane that traps parks; the others run to completion."""
        words = assemble(
            "lex $1, 40\n"
            "load $2, $1\n"       # word 40 differs per lane after injection
            "brt $2, bad\n"
            "lex $rv, 0\n"
            "sys\n"
            "bad:\n"
        ).words + [0x6000]        # illegal opcode on the poisoned path
        from repro.faults.inject import FaultEvent
        poison = FaultPlan(seed=0, events=(
            FaultEvent(step=0, target="mem", index=40, word=0, bit=0),))
        batch = _batch_run(words, [None, poison, None],
                           ways=6, backend="dense", max_steps=100)
        bm = batch.machines
        assert bool(bm.halted[0]) and bool(bm.halted[2])
        assert bool(bm.parked[1]) and not bm.halted[1]
        assert "unassigned major opcode" in bm.errors[1]
        assert [r.cause.value for r in bm.traps[1]] == ["illegal_opcode"]

    def test_watchdog_parks_all_active_lanes(self):
        words = assemble("spin: br spin\n").words
        batch = _batch_run(words, [None] * 3, ways=6,
                           backend="dense", max_steps=10)
        bm = batch.machines
        assert bm.parked.all()
        for lane in range(3):
            assert "exceeded 10 steps" in bm.errors[lane]
            assert bm.traps[lane][-1].cause is TrapCause.WATCHDOG


# ---------------------------------------------------------------------------
# Trap-policy differential: every cause, every policy action
# ---------------------------------------------------------------------------

#: instruction kind -> draw weight for :func:`_policy_program`; trapping
#: kinds are rare enough that a run usually reaches several of them
_KINDS = {"imm": 8, "alu": 4, "bf16": 1, "unary": 2, "mem": 4, "qat3": 2,
          "qat1": 1, "qhad": 1, "qmeas": 1, "sys": 1, "illegal": 0.3,
          "branch": 2}


def _policy_program(rng) -> tuple[list[int], int]:
    """Random words over every trapping instruction, plus a trap handler.

    Beside the ALU/Qat mix of :func:`random_program` the body draws
    ``addf``/``mulf``/``store``, ``sys`` services 0-6, unassigned
    opcodes and raw branch offsets (backward ones may spin until the
    watchdog fires).  It ends in ``lex $rv, 0; sys`` followed by
    ``jumpr $14`` at the returned ``handler`` address, where a vectored
    trap lands and resumes at its epc.
    """
    r = lambda: rng.randrange(10)  # noqa: E731
    q = lambda: rng.randrange(8)  # noqa: E731
    words: list[int] = []
    for _ in range(rng.randrange(8, 40)):
        kind, = rng.choices(list(_KINDS), weights=list(_KINDS.values()))
        if kind == "imm":
            instr = Instr(rng.choice(["lex", "lhi"]), (r(), rng.randrange(256)))
        elif kind == "alu":
            instr = Instr(rng.choice(SAFE_ALU), (r(), r()))
        elif kind == "bf16":
            instr = Instr(rng.choice(["addf", "mulf"]), (r(), r()))
        elif kind == "unary":
            instr = Instr(rng.choice(SAFE_UNARY), (r(),))
        elif kind == "mem":
            instr = Instr(rng.choice(["load", "store"]), (r(), r()))
        elif kind == "qat3":
            instr = Instr(rng.choice(QAT3), (q(), q(), q()))
        elif kind == "qat1":
            instr = Instr(rng.choice(["qnot", "qzero", "qone"]), (q(),))
        elif kind == "qhad":
            instr = Instr("qhad", (q(), rng.randrange(8)))
        elif kind == "qmeas":
            instr = Instr(rng.choice(["qmeas", "qnext", "qpop"]), (r(), q()))
        elif kind == "sys":
            words += encode(Instr("lex", (RV, rng.randrange(7))))
            instr = Instr("sys", ())
        elif kind == "illegal":
            words.append(rng.choice([0x6000, 0x7000, 0xF000])
                         | rng.randrange(0x1000))
            continue
        else:
            offset = rng.randrange(4) if rng.random() < 0.8 \
                else -rng.randrange(1, 6)
            instr = Instr(rng.choice(["brf", "brt"]), (r(), offset))
        words += encode(instr)
    words += encode(Instr("lex", (RV, 0))) + encode(Instr("sys", ()))
    handler = len(words)
    return words + encode(Instr("jumpr", (14,))), handler


#: The detection knobs, all on: fence, strict Qat operands, bf16 traps.
KNOBS = dict(mem_fence=0x8000, strict_qat=True, trap_bf16=True)

#: policy name -> policy for a program whose trap handler is at ``handler``
POLICIES = {
    "raise": lambda handler: TrapPolicy(),
    "raise-knobs": lambda handler: TrapPolicy(**KNOBS),
    "halt": lambda handler: TrapPolicy.halting(**KNOBS),
    "vector": lambda handler: TrapPolicy.vectored(handler, **KNOBS),
}


class TestBatchVsSerialTrapPolicies:
    PROGRAMS, LANES, MAX_STEPS = 30, 4, 300

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_random_programs_under_policy(self, backend, policy):
        """Lanes with their own fault plans match serial runs under
        each policy, and every cause the policy can see fires."""
        fired = set()
        for seed in range(self.PROGRAMS):
            rng = random.Random(seed)
            words, handler = _policy_program(rng)
            trap_policy = POLICIES[policy](handler)
            plans = [None] + [
                FaultPlan.from_seed(rng.randrange(2**31), n_faults=2,
                                    max_step=64, ways=6, targets=ALL_TARGETS)
                for _ in range(self.LANES - 1)
            ]
            batch = _batch_run(words, plans, ways=6, backend=backend,
                               max_steps=self.MAX_STEPS,
                               trap_policy=trap_policy)
            for lane, plan in enumerate(plans):
                sim, error = _serial_run(words, plan, ways=6, backend=backend,
                                         max_steps=self.MAX_STEPS,
                                         trap_policy=trap_policy)
                _assert_lane_matches(sim, error, batch, lane)
                fired.update(record.cause for record in sim.machine.traps)
        if policy == "raise":
            assert fired >= {TrapCause.ILLEGAL_OPCODE,
                             TrapCause.UNKNOWN_SYSCALL, TrapCause.WATCHDOG}
        else:
            assert fired == set(TrapCause)


# ---------------------------------------------------------------------------
# RE lane grouping: one gate evaluation per distinct operand set
# ---------------------------------------------------------------------------

class TestBatchREGrouping:
    LANES, WAYS = 5, 24

    def _replay(self):
        """The same ops on a shared-store batch and on private backends;
        lane 2 takes a qreg flip that splits its operand group."""
        qat = BatchREQat(self.LANES, self.WAYS)
        private = [REQatBackend(self.WAYS) for _ in range(self.LANES)]
        everyone = np.arange(self.LANES)

        def both(op, *args, gate=None):
            # Batch gates take the lane vector after the gate name.
            prefix = (gate,) if gate else ()
            getattr(qat, op)(*prefix, everyone, *args)
            for backend in private:
                getattr(backend, op)(*prefix, *args)

        both("had", 1, 3)
        both("had", 2, 17)  # runs of whole 16-way chunks
        both("had", 3, 20)
        qat.flip_bit(2, 1, 5, 9)
        private[2].flip_bit(1, 5, 9)
        both("binary", 4, 1, 2, gate="xor")
        both("ccnot", 3, 4, 1)
        both("cswap", 1, 2, 4)
        both("binary", 5, 1, 3, gate="and")
        return qat, private

    def test_lanes_match_private_store_backends(self):
        qat, private = self._replay()
        for lane, backend in enumerate(private):
            for reg in range(6):
                assert qat.vector(lane, reg) == backend.vector(reg)
        assert qat.vector(2, 4) != qat.vector(0, 4)
        lanes = np.arange(self.LANES)
        for channel in (0, 329, 1 << 17, (1 << 24) - 1):
            channels = np.full(self.LANES, channel)
            for probe in ("meas", "next", "pop_after"):
                assert getattr(qat, probe)(lanes, 4, channels).tolist() == [
                    getattr(backend, probe)(4, channel)
                    for backend in private
                ]

    def test_untouched_lanes_share_one_object_per_value(self):
        qat, _ = self._replay()
        for reg in range(6):
            assert len({id(qat.vector(lane, reg))
                        for lane in (0, 1, 3, 4)}) == 1

    def test_counters_count_every_lane(self):
        qat = BatchREQat(4, 8)
        with obs.capture(tracing=False) as telemetry:
            qat.had(np.arange(4), 1, 0)
            qat.binary("and", np.arange(4), 2, 1, 1)
        assert telemetry.metrics.value("qat.re.ops") == 8
        assert telemetry.metrics.value("qat.re.runs.had") == 4

    def test_campaign_counters_match_serial(self):
        kwargs = dict(program="fig10", runs=16, seed=7, ways=24,
                      qat_backend="re", targets=ALL_TARGETS)

        def counters(**strategy):
            with obs.capture(tracing=False) as telemetry:
                run_campaign(**kwargs, **strategy)
            return {name: telemetry.metrics.value(name)
                    for name in telemetry.metrics.names()
                    if name.startswith(("qat.re.", "faults."))
                    and name != "faults.run_seconds"}

        assert counters() == counters(batch=16)


# ---------------------------------------------------------------------------
# Campaign report bytes: --batch N vs serial vs --jobs
# ---------------------------------------------------------------------------

class TestBatchCampaignBytes:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch", [3, 16])
    def test_report_bytes_identical(self, backend, batch):
        kwargs = dict(program="fig10", runs=12, seed=7, faults_per_run=2,
                      targets=("gpr", "mem", "qreg", "pc"),
                      qat_backend=backend)
        serial = run_campaign(**kwargs)
        batched = run_campaign(batch=batch, **kwargs)
        assert render_report(serial).encode() == \
            render_report(batched).encode()

    @pytest.mark.parametrize("strategy", [
        {"jobs": 2}, {"batch": 3}, {"batch": 16}, {"batch": 256},
    ])
    def test_re24_report_bytes_identical(self, strategy):
        kwargs = dict(program="fig10", runs=24, seed=7, ways=24,
                      qat_backend="re", faults_per_run=3,
                      targets=ALL_TARGETS)
        serial = run_campaign(**kwargs)
        fanned = run_campaign(**strategy, **kwargs)
        assert render_report(serial).encode() == \
            render_report(fanned).encode()

    def test_report_bytes_identical_factor(self):
        serial = run_campaign(program="factor", runs=6, seed=11)
        batched = run_campaign(program="factor", runs=6, seed=11, batch=4)
        assert render_report(serial).encode() == \
            render_report(batched).encode()

    def test_batch_matches_jobs(self):
        jobs = run_campaign(program="fig10", runs=8, seed=7, jobs=2)
        batched = run_campaign(program="fig10", runs=8, seed=7, batch=8)
        assert render_report(jobs).encode() == \
            render_report(batched).encode()

    def test_batch_needs_functional_sim(self):
        with pytest.raises(ReproError, match="functional"):
            run_campaign(runs=2, batch=2, sim="multicycle")

    def test_batch_and_jobs_mutually_exclusive(self):
        with pytest.raises(ReproError, match="mutually exclusive"):
            run_campaign(runs=2, batch=2, jobs=2)

    def test_batch_must_be_positive(self):
        with pytest.raises(ReproError, match="positive"):
            run_campaign(runs=2, batch=0)


# ---------------------------------------------------------------------------
# RE campaign template: the golden store is forked, never written
# ---------------------------------------------------------------------------

def _store_state(store) -> tuple:
    return (
        [chunk.words.tobytes() for chunk in store.chunks()],
        list(store._crcs),
        dict(store._binop_cache),
        dict(store._not_cache),
        dict(store._popcount),
        dict(store._first_one),
    )


class TestRECampaignTemplate:
    def test_template_is_unchanged_by_its_campaign(self, monkeypatch):
        from repro.faults import campaign

        templates = []
        real = campaign.golden_run

        def golden_run(*args, **kwargs):
            result = real(*args, **kwargs)
            store = kwargs["qat_backend"].store
            templates.append((store, _store_state(store)))
            return result

        monkeypatch.setattr(campaign, "golden_run", golden_run)
        for strategy in ({}, {"batch": 8}):
            run_campaign(program="fig10", runs=16, seed=3, ways=24,
                         qat_backend="re", faults_per_run=3,
                         targets=ALL_TARGETS, **strategy)
        assert len(templates) == 2
        for store, state in templates:
            assert _store_state(store) == state
        assert campaign._RE_TEMPLATES == {}

    @pytest.mark.parametrize("strategy", [{}, {"batch": 4}])
    def test_back_to_back_campaigns_render_alone_bytes(self, strategy):
        fig10 = dict(program="fig10", runs=12, seed=5, ways=24,
                     qat_backend="re", faults_per_run=3,
                     targets=ALL_TARGETS, **strategy)
        factor = dict(program="factor", runs=6, seed=5, ways=8,
                      qat_backend="re", faults_per_run=2,
                      targets=ALL_TARGETS, **strategy)
        fig10_first = [render_report(run_campaign(**c))
                       for c in (fig10, factor)]
        factor_first = [render_report(run_campaign(**c))
                        for c in (factor, fig10)]
        assert fig10_first == factor_first[::-1]
