"""Golden-run fault pruning (:mod:`repro.faults.prune`).

The gate: every run a campaign settles from the golden run's access
index must carry the report entry its simulation produces -- on
:func:`~repro.faults.campaign._single_run` and as a
:func:`~repro.faults.campaign._batch_pending` lane -- and whole pruned
campaigns must equal the fully simulated report on every strategy.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import PipelineConfig, PipelinedSimulator
from repro.errors import ReproError
from repro.faults import campaign
from repro.faults.campaign import golden_run, run_campaign
from repro.faults.inject import FaultEvent, FaultPlan
from repro.faults.prune import AccessIndex
from repro.isa import Instr, encode
from tests.test_pipeline import random_program

ALL_TARGETS = ("gpr", "mem", "qreg", "pc")
_UNDER_TEST = "program-under-test"


@contextlib.contextmanager
def _program(words):
    """Serve ``words`` as the campaign program :data:`_UNDER_TEST`."""
    real = campaign._load_program
    campaign._load_program = lambda name: words if name == _UNDER_TEST \
        else real(name)
    try:
        yield
    finally:
        campaign._load_program = real
        campaign._WORKER_IMAGES.clear()
        campaign._RE_TEMPLATES.clear()
        campaign._CURSORS.clear()


def _oracle(program, runs, seed, sim="functional", ways=8,
            qat_backend="dense", faults_per_run=1,
            targets=("gpr", "mem", "qreg")):
    """``(every run simulated, pruned tasks, batch-lane details)``."""
    image = campaign._load_program(program)
    accesses = AccessIndex()
    golden, steps = golden_run(image, sim=sim, ways=ways,
                               qat_backend=qat_backend, accesses=accesses)
    tasks = campaign._campaign_tasks(program, image, golden, steps, runs,
                                     seed, sim, ways, faults_per_run,
                                     targets, qat_backend)
    pruned = [task for task in tasks if accesses.masked(task.plan)]
    lanes: dict[int, dict] = {}
    try:
        simulated = [campaign._single_run(task)[1] for task in tasks]
        if pruned and sim == "functional":
            campaign._batch_pending(
                pruned, len(pruned), image,
                lambda run, detail, *_: lanes.__setitem__(run, detail))
    finally:
        campaign._WORKER_IMAGES.clear()
        campaign._RE_TEMPLATES.clear()
        campaign._CURSORS.clear()
    return simulated, pruned, lanes


def _check(program, runs, seed, strategies, **config):
    """Assert the gate for one campaign; returns the pruned-run count."""
    simulated, pruned, lanes = _oracle(program, runs, seed, **config)
    for task in pruned:
        assert simulated[task.run]["outcome"] == "masked"
        if lanes:
            assert lanes[task.run] == simulated[task.run]
    for strategy in strategies:
        report = run_campaign(program=program, runs=runs, seed=seed,
                              **config, **strategy)
        assert report["runs_detail"] == simulated, strategy
    return len(pruned)


_IN_PROCESS = ({}, {"jobs": 2})
_FUNCTIONAL = ({}, {"jobs": 2}, {"batch": 16})


class TestPrunedRunsMatchSimulation:
    @pytest.mark.parametrize("faults_per_run", [1, 2, 3])
    def test_fig10_functional_dense(self, faults_per_run):
        pruned = _check("fig10", 64, 40 + faults_per_run, _FUNCTIONAL,
                        faults_per_run=faults_per_run, targets=ALL_TARGETS)
        assert pruned > 0

    def test_fig10_multicycle_dense(self):
        pruned = _check("fig10", 64, 50, _IN_PROCESS, sim="multicycle",
                        faults_per_run=2, targets=ALL_TARGETS)
        assert pruned > 0

    @pytest.mark.parametrize("sim", ["functional", "multicycle", "pipelined"])
    def test_fig10_re_24_ways(self, sim):
        strategies = _FUNCTIONAL if sim == "functional" else _IN_PROCESS
        pruned = _check("fig10", 20, 60, strategies, sim=sim, ways=24,
                        qat_backend="re", faults_per_run=2,
                        targets=ALL_TARGETS)
        assert pruned > 0

    @pytest.mark.parametrize("qat_backend", ["dense", "re"])
    def test_factor(self, qat_backend):
        pruned = _check("factor", 24, 70, ({}, {"batch": 8}),
                        qat_backend=qat_backend, faults_per_run=2,
                        targets=ALL_TARGETS)
        assert pruned > 0

    @pytest.mark.parametrize("qat_backend", ["dense", "re"])
    def test_qat_register_ladder(self, qat_backend):
        """Qat registers 0-63 are each set, then counted into ``$1``: a
        flip between the two is read, a flip after the count is dead."""
        from repro.asm import assemble

        source = [f"had @{r}, {r % 8}" for r in range(64)]
        for r in range(64):
            source += ["lex $2, 0", f"pop $2, @{r}", "add $1, $2"]
        source += ["lex $rv, 0", "sys"]
        with _program(assemble("\n".join(source) + "\n")):
            pruned = _check(_UNDER_TEST, 64, 80, _FUNCTIONAL,
                            qat_backend=qat_backend, faults_per_run=2,
                            targets=("gpr", "qreg"))
        assert pruned > 0

    @pytest.mark.parametrize("sim", ["functional", "multicycle"])
    def test_load_and_print_loop(self, sim):
        """A loop loads each word of a data area into ``$0`` and prints
        it: a flipped data word or ``$0`` is read by a later load or
        print, and the next load overwrites ``$0``."""
        from repro.asm import assemble

        source = """
            lex $3, 32
            lex $4, 32
        loop:
            load $0, $3
            lex $5, 1
            add $3, $5
            neg $5
            add $4, $5
            lex $rv, 1
            sys
            brt $4, loop
            lex $rv, 0
            sys
        """
        strategies = _FUNCTIONAL if sim == "functional" else _IN_PROCESS
        with _program(assemble(source)):
            pruned = _check(_UNDER_TEST, 96, 90, strategies, sim=sim,
                            targets=("gpr", "mem"))
        assert pruned > 0

    @pytest.mark.parametrize("faults_per_run", [1, 3])
    def test_fig10_pipelined_dense(self, faults_per_run):
        pruned = _check("fig10", 64, 100 + faults_per_run, _IN_PROCESS,
                        sim="pipelined", faults_per_run=faults_per_run,
                        targets=ALL_TARGETS + ("latch",))
        assert pruned > 0


def _random_campaign_program(data) -> list[int]:
    """A random terminating program (``test_pipeline.random_program``)
    wrapped in memory traffic and a ``sys`` service: stores into a data
    area just past the image before it, then loads from that area and a
    print or cycle-read service (whose ``$0`` is overwritten right after,
    so only the service observes it) before its halt."""
    body = random_program(data)
    reg = lambda: data.draw(st.integers(0, 9))  # noqa: E731
    stores = data.draw(st.lists(st.integers(0, 7), max_size=3))
    loads = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=3))
    service = data.draw(st.sampled_from([1, 2, 3, 4]))
    # Words: 3 per store and load, 3 for the service (+2 to point $0 at
    # a string).  The data area starts right after the image, inside the
    # campaign's memory-fault span.
    base = (3 * (len(stores) + len(loads)) + len(body) + 3
            + (2 if service == 4 else 0))

    def point(r: int, addr: int) -> list[int]:
        return encode(Instr("lex", (r, addr & 0xFF))) + \
            encode(Instr("lhi", (r, addr >> 8)))

    def access(mnemonic: str, offset: int) -> list[int]:
        a = reg()
        return point(a, base + offset) + encode(Instr(mnemonic, (reg(), a)))

    prefix = [w for offset in stores for w in access("store", offset)]
    suffix = [w for offset in loads for w in access("load", offset)]
    if service == 4:
        suffix += point(0, base + data.draw(st.integers(0, 7)))
    suffix += encode(Instr("lex", (12, service))) + encode(Instr("sys", ()))
    suffix += encode(Instr("lex", (0, 0)))
    # random_program ends with ``lex $rv, 0; sys``; its forward branches
    # never skip past that epilogue's start, where the suffix now sits.
    return prefix + body[:-2] + suffix + body[-2:]


class TestRandomPrograms:
    @settings(max_examples=30, deadline=None)
    @given(st.data(),
           st.sampled_from([("functional", {}), ("functional", {"batch": 8}),
                            ("functional", {"jobs": 2}),
                            ("multicycle", {}), ("pipelined", {}),
                            ("pipelined", {"jobs": 2})]),
           st.sampled_from(["dense", "re"]),
           st.integers(1, 3),
           st.integers(0, 2**16))
    def test_pruned_campaign_equals_simulated(self, data, shape, qat_backend,
                                             faults_per_run, seed):
        sim, strategy = shape
        words = _random_campaign_program(data)
        with _program(words):
            _check(_UNDER_TEST, 16, seed, ({}, strategy), sim=sim, ways=6,
                   qat_backend=qat_backend, faults_per_run=faults_per_run,
                   targets=ALL_TARGETS)


#: The pipeline configurations the cycle-stamped index must be sound
#: on: 4- and 5-stage, forwarding on and off, and the single Qat write
#: port ablation (``qswap``/``qcswap`` hold EX for a second cycle).
_PIPELINE_CONFIGS = (
    PipelineConfig(stages=4),
    PipelineConfig(stages=4, forwarding=False),
    PipelineConfig(stages=5),
    PipelineConfig(stages=5, forwarding=False),
    PipelineConfig(stages=4, second_qat_write_port=False),
    PipelineConfig(stages=5, forwarding=False, second_qat_write_port=False),
)


def _pipeline(config: PipelineConfig, words) -> PipelinedSimulator:
    sim = PipelinedSimulator(ways=6, config=config)
    sim.load(words)
    return sim


def _recorded(config: PipelineConfig, words):
    """The fault-free run's index and ``(architectural result, cycles)``."""
    sim = _pipeline(config, words)
    accesses = AccessIndex()
    cycles = accesses.record(sim)
    return accesses, (campaign._architectural_result(sim.machine), cycles)


def _replay(config: PipelineConfig, words, plan: FaultPlan,
            golden: tuple[tuple, int]) -> str:
    """Outcome of ``plan`` driven directly on a ``config`` pipeline."""
    result, cycles = golden
    sim = _pipeline(config, words)
    error = None
    try:
        campaign._drive(sim, plan, 4 * cycles + 64)
    except ReproError as exc:
        error = str(exc)
    return campaign._classify(
        0, plan, error, sim.machine.traps,
        campaign._architectural_result(sim.machine), result)["outcome"]


class _Stamps:
    """Pipeline access observer noting each PC's first IF and EX-entry
    cycle, independently of :class:`AccessIndex`."""

    def __init__(self):
        self.fetched: dict[int, int] = {}
        self.entered: dict[int, int] = {}

    def note_fetch(self, step, pc, words):
        self.fetched.setdefault(pc, step)

    def note_execute(self, step, machine, instr):
        self.entered.setdefault(machine.pc, step)


def _stamps(config: PipelineConfig, words) -> _Stamps:
    sim = _pipeline(config, words)
    sim.accesses = stamps = _Stamps()
    campaign._drive(sim, None, 1 << 20)
    return stamps


class TestPipelineConfigs:
    """The pipelined index on every pipeline shape.  Campaigns build the
    default configuration only, so these drive the sims directly."""

    @settings(max_examples=20, deadline=None)
    @given(st.data(), st.integers(1, 2), st.integers(0, 2**16))
    def test_pruned_plans_simulate_masked(self, data, faults_per_run, seed):
        """Every plan the index prunes, drawn at random and as a sweep
        of one GPR, memory word and Qat register over every cycle,
        simulates ``masked`` on that configuration."""
        words = _random_campaign_program(data)
        gpr = data.draw(st.integers(0, 12))
        word = data.draw(st.integers(0, len(words) + 7))
        qreg = data.draw(st.integers(0, 7))
        bit = data.draw(st.integers(0, 15))
        mem_span = max(64, 2 * len(words))
        for config in _PIPELINE_CONFIGS:
            accesses, golden = _recorded(config, words)
            cycles = golden[1]
            plans = [FaultPlan.from_seed(seed + run, faults_per_run,
                                         max_step=cycles, ways=6,
                                         mem_span=mem_span)
                     for run in range(16)]
            plans += [FaultPlan(0, (FaultEvent(step, target, index, 0, bit),))
                      for step in range(cycles)
                      for target, index in (("gpr", gpr), ("mem", word),
                                            ("qreg", qreg))]
            for plan in plans:
                if accesses.masked(plan):
                    assert _replay(config, words, plan, golden) == \
                        "masked", (config, plan)

    def test_flip_read_by_a_stalled_consumer_is_not_pruned(self):
        """Without forwarding, ``add $1, $4`` waits in ID for ``$1``;
        it reads ``$4`` when it finally enters EX, so a ``$4`` flip
        anywhere between its IF and its EX entry is live."""
        from repro.asm import assemble

        config = PipelineConfig(stages=5, forwarding=False)
        words = assemble("lex $4, 3\nlex $1, 5\nadd $1, $4\nlex $4, 0\n"
                         "lex $rv, 0\nsys\n").words
        stamps = _stamps(config, words)
        fetched, entered = stamps.fetched[2], stamps.entered[2]
        assert entered - fetched > 2  # held in ID by the interlock
        accesses, golden = _recorded(config, words)
        for step in range(fetched + 1, entered + 1):
            plan = FaultPlan(0, (FaultEvent(step, "gpr", 4, 0, 0),))
            assert not accesses.masked(plan), step
            assert _replay(config, words, plan, golden) == "silent", step
        # Once ``add`` has read it, ``lex $4, 0`` overwrites the flip.
        plan = FaultPlan(0, (FaultEvent(entered + 1, "gpr", 4, 0, 0),))
        assert accesses.masked(plan)
        assert _replay(config, words, plan, golden) == "masked"

    def test_words_flipped_between_fetch_and_execute_are_pruned(self):
        """The pipeline decodes an instruction's word(s) at IF; a flip of
        one while the instruction is still in flight is never read
        again, whereas the same flip before IF changes the instruction.
        Covers a one-word ``add`` and both words of a two-word ``and``,
        whose second IF cycle already holds the decode."""
        from repro.asm import assemble

        config = PipelineConfig()
        words = assemble("had @0, 3\nhad @1, 1\nand @2, @0, @1\n"
                         "pop $1, @2\nlex $2, 7\nadd $1, $2\n"
                         "lex $rv, 0\nsys\n").words
        stamps = _stamps(config, words)
        accesses, golden = _recorded(config, words)
        # (instruction pc, flipped word, bit): add's source register,
        # and's destination and first source register.
        for pc, addr, bit in ((6, 6, 0), (2, 2, 0), (2, 3, 8)):
            fetched, entered = stamps.fetched[pc], stamps.entered[pc]
            assert fetched + 1 < entered
            late = FaultPlan(0, (FaultEvent(fetched + 1, "mem", addr, 0,
                                            bit),))
            assert accesses.masked(late), addr
            assert _replay(config, words, late, golden) == "masked", addr
            early = FaultPlan(0, (FaultEvent(fetched, "mem", addr, 0, bit),))
            assert not accesses.masked(early), addr
            assert _replay(config, words, early, golden) == "silent", addr


class TestAccessIndex:
    def _index(self, source: str) -> AccessIndex:
        from repro.asm import assemble

        accesses = AccessIndex()
        golden_run(assemble(source), accesses=accesses)
        return accesses

    def _plan(self, *events) -> FaultPlan:
        return FaultPlan(0, tuple(FaultEvent(*e) for e in events))

    def test_write_before_read_is_dead_and_reads_are_live(self):
        # step 0: lex $1 (write), 1: add $2,$1 (read $2,$1; write $2),
        # 2: lex $rv, 0 (write $rv), 3: sys (reads $rv)
        accesses = self._index("lex $1, 5\nadd $2, $1\nlex $rv, 0\nsys\n")
        assert accesses.live
        assert accesses.masked(self._plan((0, "gpr", 1, 0, 3)))
        assert accesses.masked(self._plan((1, "gpr", 12, 0, 3)))
        assert not accesses.masked(self._plan((1, "gpr", 1, 0, 3)))
        assert not accesses.masked(self._plan((0, "gpr", 2, 0, 3)))
        assert not accesses.masked(self._plan((3, "gpr", 12, 0, 0)))
        # A GPR never accessed again is still the run's result.
        assert not accesses.masked(self._plan((3, "gpr", 9, 0, 0)))
        # Both events must be dead.
        assert not accesses.masked(self._plan((0, "gpr", 1, 0, 3),
                                              (1, "gpr", 2, 0, 3)))

    def test_fetched_words_are_reads_and_unread_memory_is_dead(self):
        accesses = self._index("lex $rv, 0\nsys\n")
        assert not accesses.masked(self._plan((0, "mem", 1, 0, 0)))
        assert accesses.masked(self._plan((1, "mem", 0, 0, 0)))
        assert accesses.masked(self._plan((0, "mem", 40, 0, 0)))
        assert accesses.masked(self._plan((0, "qreg", 3, 0, 0)))

    def test_pc_and_latch_events_are_never_pruned(self):
        accesses = self._index("lex $rv, 0\nsys\n")
        assert not accesses.masked(self._plan((0, "pc", 0, 0, 0)))
        assert not accesses.masked(self._plan((0, "latch", 0, 0, 0)))

    @pytest.mark.parametrize("sim_name", ["functional", "pipelined"])
    def test_unknown_service_or_trap_disables_pruning(self, sim_name):
        from repro.asm import assemble
        from repro.faults.traps import TrapAction, TrapPolicy

        # A service the index does not model, even one that runs fine.
        sim = campaign._new_simulator(sim_name, 8, None)
        sim.syscalls.register(9, lambda machine: None)
        sim.load(assemble("lex $rv, 9\nsys\nlex $rv, 0\nsys\n"))
        accesses = AccessIndex()
        steps = accesses.record(sim)
        assert steps == (4 if sim_name == "functional" else sim.stats.cycles)
        assert not sim.machine.traps and not accesses.live
        assert not accesses.masked(self._plan((0, "mem", 40, 0, 0)))

        # A golden run that trapped (halted by policy, not by ``sys``).
        sim = campaign._new_simulator(
            sim_name, 8, TrapPolicy(default=TrapAction.HALT))
        sim.load(assemble("lex $rv, 0\n.word 0xFFFF\n"))
        accesses = AccessIndex()
        accesses.record(sim)
        assert sim.machine.traps and not accesses.live
        assert not accesses.masked(self._plan((0, "mem", 40, 0, 0)))

    def test_pruned_runs_are_settled_not_simulated(self, monkeypatch):
        simulated = []
        real = campaign._single_run

        def counting(task, attempt=0):
            simulated.append(task.run)
            return real(task, attempt)

        monkeypatch.setattr(campaign, "_single_run", counting)
        report = run_campaign(runs=8, seed=7)
        # Runs 2-4 and 7 are pruned; the rest run in first-event order.
        assert simulated == [6, 5, 1, 0]
        assert [d["outcome"] for d in report["runs_detail"]] == \
            ["silent"] * 2 + ["masked"] * 3 + ["silent"] * 2 + ["masked"]
