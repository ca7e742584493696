"""Def-use fault-site pruning: settle provably masked runs from the golden run.

A campaign's golden (fault-free) run is deterministic, so the faulted
run of a plan replays it exactly for as long as no flipped bit is read.
:class:`AccessIndex` records, while the golden run executes, the steps
at which every GPR, Qat register and memory word is read or written.  A
flip is *dead* when the golden run's first access to its location at or
after the event's step is a write (the flip is overwritten unread), or
when the location is never accessed again and is not part of the run's
result.  A plan whose events are all dead replays the golden run step
for step -- same instructions, same values, no traps -- and ends with
the golden GPRs and output: it is ``masked`` without being simulated.
This is def-use fault-site pruning in the style of Relyzer (Hari et
al., ASPLOS 2012).

What counts as a read:

- the fetched instruction word(s), both words of a two-word instruction;
- the operand registers :func:`~repro.cpu.exec_core.static_effects`
  names, and the memory word a ``load`` addresses;
- ``sys``: what :class:`~repro.cpu.syscalls.SyscallHandler` reads --
  the service number in ``$rv``, the operand in ``$0`` for the print
  services, and the memory words a print-string service walks up to its
  terminator.  The cycle-read service writes ``$0``.

A step that both reads and writes a location counts as a read.  Final
GPRs are observed (they are the run's result, and the halting ``sys``
reads only ``$rv``); final Qat registers and memory are not.  The index
declines to prune anything -- :attr:`AccessIndex.live` stays False --
when the golden run trapped or issued a ``sys`` service other than 0-4.
``pc`` and ``latch`` events are never pruned.

One access model runs on two clocks.  A functional or multicycle step
is one instruction: it fetches and executes at the same step.  A
pipelined step is a cycle, and an instruction's accesses fall on two of
them: its word(s) are read at the cycle IF decodes them (wrong-path
fetches included), its registers, Qat registers and memory at the cycle
it enters EX, where the pipeline changes all architectural state.  The
pipeline notes both itself
(:attr:`repro.cpu.pipeline.PipelinedSimulator.accesses`), so a flip that
lands between an instruction's IF and its EX entry -- an interlock can
hold it in ID for cycles -- is placed against the read that sees it.
"""

from __future__ import annotations

import sys
from bisect import bisect_left

from repro.cpu import fastpath as _fastpath
from repro.cpu.exec_core import static_effects
from repro.cpu.pipeline import PipelinedSimulator
from repro.cpu.syscalls import (
    PRINT_CHAR,
    PRINT_INT,
    PRINT_STRING,
    READ_CYCLES,
)
from repro.errors import EncodingError
from repro.isa.encoding import decode
from repro.isa.registers import RV

#: ``sys`` services whose state accesses the index models.
_KNOWN_SERVICES = range(PRINT_STRING + 1)
#: Services that read their operand from ``$0``.
_PRINTS = (PRINT_INT, PRINT_CHAR, PRINT_STRING)
#: Print-string's runaway guard (:class:`~repro.cpu.syscalls.SyscallHandler`).
_STRING_GUARD = 4096
#: Fault targets that name a location the index tracks.
_LOCATIONS = ("gpr", "mem", "qreg")


class AccessIndex:
    """Per-location read/write steps of one golden run.

    :attr:`accesses` maps a location -- ``(target, index)`` with a
    :data:`~repro.faults.inject.TARGETS` name -- to ``(steps, writes)``:
    the ascending steps that access it and, per step, whether that
    step's first access was a write.  :meth:`record` fills it;
    :meth:`masked` answers plans.
    """

    def __init__(self) -> None:
        self.accesses: dict[tuple[str, int], tuple[list[int], list[bool]]] = {}
        #: True once a trap-free golden run with only known ``sys``
        #: services has been recorded; :meth:`masked` is False until then
        self.live = False
        self._known = True

    def _note(self, target: str, index: int, step: int, write: bool) -> None:
        entry = self.accesses.get((target, index))
        if entry is None:
            self.accesses[target, index] = ([step], [write])
        elif entry[0][-1] != step:  # the step's first access wins
            entry[0].append(step)
            entry[1].append(write)

    def note_fetch(self, step: int, pc: int, words: int) -> None:
        """Record an instruction fetch at ``step``: ``words`` words read
        from ``pc`` (one for a word that does not decode)."""
        for offset in range(words):
            self._note("mem", (pc + offset) & 0xFFFF, step, False)

    def note_execute(self, step: int, machine, instr) -> None:
        """Record the state accesses of ``instr`` executing at ``step``
        on ``machine``, whose registers and memory are still as the
        instruction finds them.  A ``sys`` service the index does not
        model leaves it unable to prune."""
        note = self._note
        regs = machine.regs
        effects = static_effects(instr)
        m = instr.mnemonic
        for reg in effects.reads_gpr:
            note("gpr", reg, step, False)
        for reg in effects.reads_qreg:
            note("qreg", reg, step, False)
        if m == "load":
            note("mem", int(regs[instr.ops[1]]), step, False)
        elif m == "store":
            note("mem", int(regs[instr.ops[1]]), step, True)
        elif m == "sys":
            service = int(regs[RV])
            if service not in _KNOWN_SERVICES:
                self._known = False
                return
            note("gpr", RV, step, False)
            if service in _PRINTS:
                note("gpr", 0, step, False)
            elif service == READ_CYCLES:
                note("gpr", 0, step, True)
            if service == PRINT_STRING:
                mem = machine.mem
                addr = int(regs[0])
                for _ in range(_STRING_GUARD):
                    note("mem", addr, step, False)
                    if int(mem[addr]) == 0:
                        break
                    addr = (addr + 1) & 0xFFFF
        for reg in effects.writes_gpr:
            note("gpr", reg, step, True)
        for reg in effects.writes_qreg:
            note("qreg", reg, step, True)

    def record(self, sim) -> int:
        """Run ``sim`` (program loaded) to halt, recording every access;
        returns the step count.

        The functional and multicycle sims run one instruction per step
        on :func:`repro.cpu.fastpath.drive`, the engine a plain golden
        run uses, and each step fetches and executes.  The pipelined sim
        steps cycles on :func:`~repro.cpu.fastpath.run_stepped` with the
        index attached as its ``accesses`` observer: it notes each fetch
        at the cycle IF decodes it and each execution at the cycle the
        instruction enters EX."""
        machine = sim.machine
        self._known = True
        if isinstance(sim, PipelinedSimulator):
            sim.accesses = self
            try:
                step = _fastpath.run_stepped(sim, sys.maxsize)
            finally:
                sim.accesses = None
        else:
            step = 0
            while not machine.halted:
                pc = machine.pc
                try:
                    instr, words = decode(machine.mem, pc)
                except EncodingError:
                    self._known = False  # the step traps
                else:
                    self.note_fetch(step, pc, words)
                    self.note_execute(step, machine, instr)
                step = _fastpath.drive(sim, sys.maxsize, step, step + 1)
        self.live = self._known and not machine.traps
        return step

    def masked(self, plan) -> bool:
        """True when every event of ``plan`` flips a dead location, so
        the faulted run provably replays the golden run."""
        if not self.live:
            return False
        for event in plan.events:
            if event.target not in _LOCATIONS:
                return False  # pc / latch: control flow, never pruned
            steps, writes = self.accesses.get((event.target, event.index),
                                              ((), ()))
            at = bisect_left(steps, event.step)
            if at == len(steps):
                if event.target == "gpr":
                    return False  # final GPRs are the run's result
            elif not writes[at]:
                return False
        return True
