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
when the golden run trapped or issued a ``sys`` service other than 0-4,
and it is never recorded for the pipelined simulator, whose steps are
cycles rather than instructions.  ``pc`` and ``latch`` events are never
pruned.
"""

from __future__ import annotations

import sys
from bisect import bisect_left

from repro.cpu import fastpath as _fastpath
from repro.cpu.exec_core import static_effects
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

    def _note(self, target: str, index: int, step: int, write: bool) -> None:
        entry = self.accesses.get((target, index))
        if entry is None:
            self.accesses[target, index] = ([step], [write])
        elif entry[0][-1] != step:  # the step's first access wins
            entry[0].append(step)
            entry[1].append(write)

    def _note_step(self, step: int, machine) -> bool:
        """Record the accesses of the instruction about to execute;
        False when it will trap on decode or is a ``sys`` service the
        index does not model."""
        note = self._note
        mem, regs, pc = machine.mem, machine.regs, machine.pc
        try:
            instr, words = decode(mem, pc)
        except EncodingError:
            return False  # the step traps: the run has nothing to prune
        for offset in range(words):
            note("mem", (pc + offset) & 0xFFFF, step, False)
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
                return False
            note("gpr", RV, step, False)
            if service in _PRINTS:
                note("gpr", 0, step, False)
            elif service == READ_CYCLES:
                note("gpr", 0, step, True)
            if service == PRINT_STRING:
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
        return True

    def record(self, sim) -> int:
        """Run ``sim`` (functional or multicycle, program loaded) to halt
        one instruction at a time, recording every access; returns the
        step count.  Each step executes on :func:`repro.cpu.fastpath.drive`,
        the engine a plain golden run uses."""
        machine = sim.machine
        known = True
        step = 0
        while not machine.halted:
            known = self._note_step(step, machine) and known
            step = _fastpath.drive(sim, sys.maxsize, step, step + 1)
        self.live = known and not machine.traps
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
