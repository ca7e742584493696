"""Fast-path execution engine: predecode cache + stripped hot loop.

The per-step path re-decodes every instruction word at every step and pays
telemetry/trace/checkpoint dispatch on every loop iteration even when no
observer is attached.  This module removes that overhead without
changing a single architectural outcome:

- **Predecode cache** (:class:`PredecodeCache`): each program word is
  decoded once into a :class:`Predecoded` entry carrying the
  instruction, its fast handler (:data:`repro.cpu.exec_core.FAST_HANDLERS`),
  and its :class:`~repro.cpu.exec_core.StaticEffects`.  Decoded entries
  are pure functions of their bit patterns, so they are interned
  process-wide and shared by all three simulators.  Stores invalidate
  precisely (``MachineState.write_mem`` drops the entry at the written
  address plus a two-word entry starting one word earlier), so
  self-modifying code simply re-decodes the rewritten words.
- **Stripped run loop** (:func:`run`): one loop for the functional and
  multi-cycle simulators -- a per-mnemonic cost table charges the
  multi-cycle clock, the functional sim has none.  No span enter/exit,
  no per-step ``Effects`` allocation, locals-bound state, and handler
  dispatch through the predecoded table.  A ``stop`` step bound lets a
  caller regain control between steps and resume.
- **One drive** (:func:`drive`): picks :func:`run` or its per-step
  twin :func:`run_stepped` (same arguments, same step count, calls
  ``sim.step()`` and ticks an attached auto-checkpointer) by one
  :func:`eligible` check.  Both simulators' ``run()`` and the fault
  campaigns' segment drive (:func:`repro.faults.campaign._drive`) go
  through it; campaigns apply each fault event at a ``stop``.  The
  fast loop is only taken when telemetry capture, tracing,
  auto-checkpointing, and profiling are all inactive; any observer
  keeps the byte-identical per-step path.  Set ``REPRO_FASTPATH=0`` in
  the environment to force the per-step path.  The flight recorder
  (:mod:`repro.obs.flight`) is *not* an observer in this sense: its
  retire append is cheap enough to stay inside the fast loop, so it
  never costs eligibility.

Trap behaviour is identical to the per-step path by construction: both
call the same handlers (:func:`repro.cpu.exec_core.execute` wraps them
with the observer hooks), which raise through
:func:`repro.faults.traps.deliver` with the same causes and detail
strings.  The differential suite (``tests/test_fastpath.py``) checks
final state digests and trap records on random programs anyway.
"""

from __future__ import annotations

import functools
import os

from repro.cpu.exec_core import FAST_HANDLERS, TRAP_MNEMONIC, static_effects
from repro.errors import EncodingError
from repro.faults.traps import TrapCause, TrapDelivered
from repro.isa.encoding import decode
from repro.obs import flight as _flight
from repro.obs import runtime as _obs

#: Master switch: ``REPRO_FASTPATH=0`` disables fast-loop selection
#: process-wide (the predecode cache stays behaviour-neutral and on).
ENABLED = os.environ.get("REPRO_FASTPATH", "1") != "0"

#: Major opcodes of two-word (Qat multi-register) instructions.
_TWO_WORD_MAJORS = (0x8, 0x9)

_MEM_WORDS = 1 << 16


class Predecoded:
    """One decoded program word (or decode error), ready to dispatch."""

    __slots__ = ("instr", "ops", "mnemonic", "words", "handler", "static",
                 "raw", "error")

    def __init__(self, instr, words, handler, static, raw=(), error=None):
        self.instr = instr
        self.ops = instr.ops if instr is not None else ()
        self.mnemonic = instr.mnemonic if instr is not None else None
        self.words = words
        self.handler = handler
        self.static = static
        #: the raw instruction word(s) as a tuple -- interned alongside
        #: the entry so the flight recorder's retire events never fetch
        #: or allocate on the hot path
        self.raw = raw
        #: the EncodingError text when the word(s) do not decode
        self.error = error


#: Process-wide intern table: word (or ``(word1, word2)``) -> entry.
#: Decode -- including every EncodingError message -- is a pure function
#: of the fetched bit patterns, so entries are safely shared across
#: machines, simulators, and repeated loads of the same program.
_INTERN: dict = {}


def _predecode(mem, pc: int) -> Predecoded:
    """Decode (or fetch from the intern table) the word(s) at ``pc``."""
    word = int(mem[pc])
    if (word >> 12) in _TWO_WORD_MAJORS and pc + 1 < _MEM_WORDS:
        key = (word, int(mem[pc + 1]))
    else:
        key = word
    entry = _INTERN.get(key)
    if entry is None:
        raw = key if isinstance(key, tuple) else (key,)
        try:
            instr, words = decode(mem, pc)
        except EncodingError as exc:
            entry = Predecoded(None, 1, None, None, raw=raw[:1],
                               error=str(exc))
        else:
            entry = Predecoded(instr, words, FAST_HANDLERS[instr.mnemonic],
                               static_effects(instr), raw=raw[:words])
        _INTERN[key] = entry
    return entry


class PredecodeCache:
    """Per-machine ``pc -> Predecoded`` map with precise invalidation."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: dict[int, Predecoded] = {}

    def lookup(self, mem, pc: int) -> Predecoded:
        entry = self.entries.get(pc)
        if entry is None:
            entry = self.entries[pc] = _predecode(mem, pc)
        return entry

    def invalidate(self, addr: int) -> None:
        """Drop entries covering ``addr`` after a store there.

        An instruction is at most two words long, so only the entry at
        ``addr`` itself and a two-word entry starting at ``addr - 1``
        can have consumed the written word.  A store at address 0 has no
        predecessor: probing ``addr - 1`` must not wrap to the top of
        memory (a two-word entry at ``_MEM_WORDS - 1`` cannot exist --
        its second word would be off the end -- but the wrapped probe
        used to evict whatever entry lived there).
        """
        entries = self.entries
        entries.pop(addr, None)
        if addr == 0:
            return
        prev = addr - 1
        before = entries.get(prev)
        if before is not None and before.words == 2:
            del entries[prev]

    def invalidate_all(self) -> None:
        self.entries.clear()

    def fork(self) -> "PredecodeCache":
        """A cache of its own holding this one's entries."""
        twin = PredecodeCache()
        twin.entries = dict(self.entries)
        return twin


def cache_for(machine) -> PredecodeCache | None:
    """The machine's predecode cache (``None`` when disabled on it)."""
    if not machine.predecode_enabled:
        return None
    cache = machine._predecode
    if cache is None:
        cache = machine._predecode = PredecodeCache()
    return cache


def eligible(sim) -> bool:
    """Should ``sim`` take the stripped fast loop right now?

    Requires the module switch on and *no* observer -- telemetry
    capture, an execution trace, an auto-checkpointer, or a profiler --
    attached to the simulator.
    """
    return (ENABLED and not _obs.active
            and getattr(sim, "trace", None) is None
            and getattr(sim, "checkpointer", None) is None
            and getattr(sim, "profiler", None) is None)


def drive(sim, max_steps: int, steps: int = 0, stop: int | None = None,
          watchdog: str | None = None) -> int:
    """Step ``sim`` toward halt on :func:`run` when :func:`eligible`,
    else on :func:`run_stepped`; returns the step count."""
    segment = run if eligible(sim) else run_stepped
    return segment(sim, max_steps, steps, stop, watchdog)


def _watchdog(machine, max_steps: int, watchdog: str | None) -> None:
    """Fire the step-budget trap (default detail: the simulators' wording)."""
    machine.trap(TrapCause.WATCHDOG, detail=watchdog or
                 f"exceeded {max_steps} steps without halting")


def run_stepped(sim, max_steps: int, steps: int = 0, stop: int | None = None,
                watchdog: str | None = None) -> int:
    """Per-step twin of :func:`run` (same contract), driving ``sim.step()``
    so observers see every step and pipeline latches stay addressable.

    An attached auto-checkpointer ticks after every step, with the
    timing model's clock (``machine.cycle_provider``) when there is one.
    """
    machine = sim.machine
    checkpointer = getattr(sim, "checkpointer", None)
    clock = machine.cycle_provider
    while not machine.halted:
        if steps >= max_steps:
            try:
                _watchdog(machine, max_steps, watchdog)
            except TrapDelivered:
                break
        if steps == stop:
            break
        sim.step()
        steps += 1
        if checkpointer is not None:
            checkpointer.tick(machine,
                              cycle=clock() if clock is not None else None)
    return steps


@functools.lru_cache(maxsize=None)
def cost_table(costs) -> dict:
    """``mnemonic -> cycles`` for a multi-cycle ``CycleCosts``, plus the
    exception-entry charge of a trapped step under :data:`TRAP_MNEMONIC`."""
    table = {m: costs.cycles_for(m) for m in FAST_HANDLERS}
    table[TRAP_MNEMONIC] = costs.cycles_for(TRAP_MNEMONIC)
    return table


def run(sim, max_steps: int, steps: int = 0, stop: int | None = None,
        watchdog: str | None = None) -> int:
    """Stripped equivalent of stepping ``sim`` to halt; returns the step count.

    Serves the functional and multi-cycle simulators: a sim with a
    ``costs`` table (multi-cycle) is charged its cycles in ``sim.cycles``
    after every step -- not batched, because trap records read the clock
    through ``machine.cycle_provider`` at delivery time and a trapping
    instruction is charged only *after* delivery.  Steps count trapped
    instructions too.

    ``steps`` resumes a count from an earlier segment.  ``stop`` returns
    before executing step ``stop``, so a caller can act between steps
    (fault campaigns apply their events there) and call again.  Step
    ``max_steps`` fires the ``watchdog`` trap instead, with detail
    ``watchdog`` (default: the simulators' own wording).
    """
    machine = sim.machine
    syscalls = sim.syscalls
    costs = getattr(sim, "costs", None)
    cost_of = cost_table(costs) if costs is not None else None
    limit = max_steps if stop is None else min(stop, max_steps)
    mem = machine.mem
    cache = cache_for(machine)
    entries = cache.entries if cache is not None else None
    # Flight-recorder hot-path state: a bound ``list.append`` and a
    # countdown to the next trim, so a retire costs one branch, one
    # tuple, one append, and one integer compare -- no ``len()`` global
    # lookup, no method resolution.
    recorder = _flight.RECORDER
    fr_append = recorder.events.append if recorder.enabled else None
    fr_room = recorder.limit - len(recorder.events)
    while not machine.halted:
        if steps >= limit:
            if steps < max_steps:
                return steps  # reached ``stop``
            try:
                _watchdog(machine, max_steps, watchdog)
            except TrapDelivered:
                break
        pc = machine.pc
        if entries is not None:
            entry = entries.get(pc)
            if entry is None:
                entry = entries[pc] = _predecode(mem, pc)
        else:
            entry = _predecode(mem, pc)
        handler = entry.handler
        try:
            if handler is None:
                machine.trap(TrapCause.ILLEGAL_OPCODE, detail=entry.error)
            machine.pc = handler(machine, entry.instr, entry.ops,
                                 (pc + entry.words) & 0xFFFF, syscalls)
            machine.instret += 1
            if cost_of is not None:
                sim.cycles += cost_of[entry.mnemonic]
            if fr_append is not None:
                fr_append((0, pc, entry.raw))
                fr_room -= 1
                if fr_room <= 0:
                    recorder._trim()
                    fr_room = recorder.limit - len(recorder.events)
        except TrapDelivered:
            # deliver() already redirected/halted the machine
            if cost_of is not None:
                sim.cycles += cost_of[TRAP_MNEMONIC]
        steps += 1
    return steps
