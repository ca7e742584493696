"""Single-instruction executor shared by all simulators.

Semantics follow Tables 1 and 3 exactly where the paper specifies them;
where it leaves detail to the implementer the choices are documented
inline (and in DESIGN.md):

- ``shift $d,$s``: the paper says "shift left/right" with functionality
  ``$d = $d << $s``; here ``$s`` is taken as signed -- positive shifts
  left, negative shifts right (logical).  Magnitudes >= 16 yield 0.
- ``slt`` compares signed 16-bit values.
- Branch truth is "register non-zero"; offsets are relative to the
  *following* instruction.
- ``mul`` keeps the low 16 bits of the product.
- ``meas``/``next``/``pop`` index channels modulo the AoB length.
"""

from __future__ import annotations

import functools
import time as _time
from dataclasses import dataclass

from repro.bf16 import (
    bf16_add,
    bf16_from_int,
    bf16_mul,
    bf16_neg,
    bf16_recip,
    bf16_to_int,
)
from repro.errors import SimulatorError
from repro.faults.traps import TrapCause
from repro.isa.instructions import INSTRUCTIONS, Instr
from repro.obs import flight as _flight
from repro.obs import runtime as _obs

#: Mnemonic of the synthetic :class:`Effects` a simulator returns when an
#: instruction trapped under the halt/vector policy instead of executing.
TRAP_MNEMONIC = "trap"

#: bf16 exponent field: all-ones means NaN or infinity (overflow).
_BF16_EXP_MASK = 0x7F80


@dataclass
class Effects:
    """What one executed instruction did (consumed by timing models and
    traces; register use is :func:`static_effects`)."""

    mnemonic: str
    next_pc: int
    taken_branch: bool = False


@dataclass(frozen=True)
class StaticEffects:
    """Register use derivable without executing (for hazard detection)."""

    reads_gpr: frozenset[int]
    writes_gpr: frozenset[int]
    reads_qreg: frozenset[int]
    writes_qreg: frozenset[int]
    is_branch: bool
    is_jump: bool
    is_load: bool
    is_store: bool


@functools.lru_cache(maxsize=None)
def static_effects(instr: Instr) -> StaticEffects:
    """Registers read/written by ``instr``, from the spec alone (memoized)."""
    m = instr.mnemonic
    ops = instr.ops
    rg: set[int] = set()
    wg: set[int] = set()
    rq: set[int] = set()
    wq: set[int] = set()
    is_branch = m in ("brf", "brt")
    is_jump = m == "jumpr"
    is_load = m == "load"
    is_store = m == "store"
    if m in ("add", "addf", "and", "mul", "mulf", "or", "shift", "slt", "xor"):
        rg = {ops[0], ops[1]}
        wg = {ops[0]}
    elif m == "copy":
        rg = {ops[1]}
        wg = {ops[0]}
    elif m == "load":
        rg = {ops[1]}
        wg = {ops[0]}
    elif m == "store":
        rg = {ops[0], ops[1]}
    elif m in ("float", "int", "neg", "negf", "not", "recip"):
        rg = {ops[0]}
        wg = {ops[0]}
    elif m == "lex":
        wg = {ops[0]}
    elif m == "lhi":
        rg = {ops[0]}  # lhi preserves the low byte: read-modify-write
        wg = {ops[0]}
    elif m in ("brf", "brt"):
        rg = {ops[0]}
    elif m == "jumpr":
        rg = {ops[0]}
    elif m == "sys":
        pass
    elif m in ("qand", "qor", "qxor"):
        rq = {ops[1], ops[2]}
        wq = {ops[0]}
    elif m == "qccnot":
        rq = {ops[0], ops[1], ops[2]}
        wq = {ops[0]}
    elif m == "qcnot":
        rq = {ops[0], ops[1]}
        wq = {ops[0]}
    elif m == "qcswap":
        rq = {ops[0], ops[1], ops[2]}
        wq = {ops[0], ops[1]}
    elif m == "qswap":
        rq = {ops[0], ops[1]}
        wq = {ops[0], ops[1]}
    elif m == "qnot":
        rq = {ops[0]}
        wq = {ops[0]}
    elif m in ("qzero", "qone"):
        wq = {ops[0]}
    elif m == "qhad":
        wq = {ops[0]}
    elif m in ("qmeas", "qnext", "qpop"):
        rg = {ops[0]}
        wg = {ops[0]}
        rq = {ops[1]}
    else:  # pragma: no cover
        raise SimulatorError(f"no effects model for {m!r}")
    return StaticEffects(
        frozenset(rg), frozenset(wg), frozenset(rq), frozenset(wq),
        is_branch, is_jump, is_load, is_store,
    )


# ---------------------------------------------------------------------------
# Fast-path handler dispatch table
# ---------------------------------------------------------------------------
#
# One handler per mnemonic: the only scalar copy of the instruction
# semantics.  The fast loop (:mod:`repro.cpu.fastpath`) selects a handler
# once per predecoded word and calls it bare; :func:`execute` calls the
# same handler and adds the observability hooks around it.  Everything
# architectural -- register/memory/Qat semantics, trap causes, trap
# detail strings, PC arithmetic -- lives here.  The batched simulator
# (:mod:`repro.cpu.batch`) vectorizes only the common case; a lane that
# traps, calls ``sys`` or converts runs these handlers on a view of itself.
#
# Signature: ``handler(machine, instr, ops, pc_next, syscalls) -> next_pc``.
# The caller owns ``machine.pc = next_pc`` and the ``instret`` increment.

def _fast_add(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (int(regs[d]) + int(regs[ops[1]])) & 0xFFFF
    return pc_next


def _fast_addf(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    result = bf16_add(int(regs[d]), int(regs[ops[1]]))
    if machine.trap_policy.trap_bf16 and (result & _BF16_EXP_MASK) == _BF16_EXP_MASK:
        machine.trap(
            TrapCause.BF16_FAULT,
            detail=f"addf produced non-finite bf16 {result:#06x}",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    regs[d] = result & 0xFFFF
    return pc_next


def _fast_and(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (int(regs[d]) & int(regs[ops[1]])) & 0xFFFF
    return pc_next


def _fast_brf(machine, instr, ops, pc_next, syscalls):
    if int(machine.regs[ops[0]]) == 0:
        return (pc_next + ops[1]) & 0xFFFF
    return pc_next


def _fast_brt(machine, instr, ops, pc_next, syscalls):
    if int(machine.regs[ops[0]]) != 0:
        return (pc_next + ops[1]) & 0xFFFF
    return pc_next


def _fast_copy(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    regs[ops[0]] = regs[ops[1]]
    return pc_next


def _fast_float(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = bf16_from_int(int(regs[d])) & 0xFFFF
    return pc_next


def _fast_int(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = bf16_to_int(int(regs[d])) & 0xFFFF
    return pc_next


def _fast_jumpr(machine, instr, ops, pc_next, syscalls):
    return int(machine.regs[ops[0]])


def _fast_lex(machine, instr, ops, pc_next, syscalls):
    imm = ops[1]
    machine.regs[ops[0]] = imm & 0xFF if (imm & 0x80) == 0 else (imm & 0xFF) | 0xFF00
    return pc_next


def _fast_lhi(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (int(regs[d]) & 0x00FF) | ((ops[1] & 0xFF) << 8)
    return pc_next


def _fast_load(machine, instr, ops, pc_next, syscalls):
    addr = int(machine.regs[ops[1]])
    fence = machine.trap_policy.mem_fence
    if fence is not None and addr >= fence:
        machine.trap(
            TrapCause.MEM_FAULT,
            detail=f"load from {addr:#06x} beyond fence {fence:#06x}",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    machine.regs[ops[0]] = machine.mem[addr & 0xFFFF]
    return pc_next


def _fast_mul(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (int(regs[d]) * int(regs[ops[1]])) & 0xFFFF
    return pc_next


def _fast_mulf(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    result = bf16_mul(int(regs[d]), int(regs[ops[1]]))
    if machine.trap_policy.trap_bf16 and (result & _BF16_EXP_MASK) == _BF16_EXP_MASK:
        machine.trap(
            TrapCause.BF16_FAULT,
            detail=f"mulf produced non-finite bf16 {result:#06x}",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    regs[d] = result & 0xFFFF
    return pc_next


def _fast_neg(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (-int(regs[d])) & 0xFFFF
    return pc_next


def _fast_negf(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = bf16_neg(int(regs[d])) & 0xFFFF
    return pc_next


def _fast_not(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (~int(regs[d])) & 0xFFFF
    return pc_next


def _fast_or(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (int(regs[d]) | int(regs[ops[1]])) & 0xFFFF
    return pc_next


def _fast_recip(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    result = bf16_recip(int(regs[d]))
    if machine.trap_policy.trap_bf16 and (result & _BF16_EXP_MASK) == _BF16_EXP_MASK:
        machine.trap(
            TrapCause.BF16_FAULT,
            detail=f"recip produced non-finite bf16 {result:#06x}",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    regs[d] = result & 0xFFFF
    return pc_next


def _fast_shift(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    amount = int(regs[ops[1]])
    if amount >= 0x8000:
        amount -= 0x10000
    value = int(regs[d])
    if amount >= 16 or amount <= -16:
        result = 0
    elif amount >= 0:
        result = value << amount
    else:
        result = value >> (-amount)
    regs[d] = result & 0xFFFF
    return pc_next


def _fast_slt(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    a = int(regs[d])
    b = int(regs[ops[1]])
    if a >= 0x8000:
        a -= 0x10000
    if b >= 0x8000:
        b -= 0x10000
    regs[d] = 1 if a < b else 0
    return pc_next


def _fast_store(machine, instr, ops, pc_next, syscalls):
    addr = int(machine.regs[ops[1]])
    fence = machine.trap_policy.mem_fence
    if fence is not None and addr >= fence:
        machine.trap(
            TrapCause.MEM_FAULT,
            detail=f"store to {addr:#06x} beyond fence {fence:#06x}",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    machine.write_mem(addr, int(machine.regs[ops[0]]))
    return pc_next


def _fast_sys(machine, instr, ops, pc_next, syscalls):
    if syscalls is not None:
        syscalls.handle(machine)
    else:
        machine.halted = True
    return pc_next


def _fast_xor(machine, instr, ops, pc_next, syscalls):
    regs = machine.regs
    d = ops[0]
    regs[d] = (int(regs[d]) ^ int(regs[ops[1]])) & 0xFFFF
    return pc_next


def _fast_qand(machine, instr, ops, pc_next, syscalls):
    machine.qat.binary("and", ops[0], ops[1], ops[2])
    return pc_next


def _fast_qor(machine, instr, ops, pc_next, syscalls):
    machine.qat.binary("or", ops[0], ops[1], ops[2])
    return pc_next


def _fast_qxor(machine, instr, ops, pc_next, syscalls):
    machine.qat.binary("xor", ops[0], ops[1], ops[2])
    return pc_next


def _fast_qccnot(machine, instr, ops, pc_next, syscalls):
    machine.qat.ccnot(ops[0], ops[1], ops[2])
    return pc_next


def _fast_qcnot(machine, instr, ops, pc_next, syscalls):
    machine.qat.cnot(ops[0], ops[1])
    return pc_next


def _fast_qcswap(machine, instr, ops, pc_next, syscalls):
    machine.qat.cswap(ops[0], ops[1], ops[2])
    return pc_next


def _fast_qswap(machine, instr, ops, pc_next, syscalls):
    machine.qat.swap(ops[0], ops[1])
    return pc_next


def _fast_qnot(machine, instr, ops, pc_next, syscalls):
    machine.qat.invert(ops[0])
    return pc_next


def _fast_qzero(machine, instr, ops, pc_next, syscalls):
    machine.qat.zero(ops[0])
    return pc_next


def _fast_qone(machine, instr, ops, pc_next, syscalls):
    machine.qat.one(ops[0])
    return pc_next


def _fast_qhad(machine, instr, ops, pc_next, syscalls):
    if machine.trap_policy.strict_qat and ops[1] >= machine.ways:
        machine.trap(
            TrapCause.QAT_FAULT,
            detail=f"had k={ops[1]} exceeds {machine.ways}-way entanglement",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    machine.qat.had(ops[0], ops[1])
    return pc_next


def _fast_qmeas(machine, instr, ops, pc_next, syscalls):
    d = ops[0]
    channel = int(machine.regs[d])
    if machine.trap_policy.strict_qat and channel >= machine.nbits:
        machine.trap(
            TrapCause.QAT_FAULT,
            detail=f"channel {channel} out of range for "
                   f"{machine.nbits}-channel AoB",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    machine.regs[d] = machine.qat.meas(ops[1], channel) & 0xFFFF
    return pc_next


def _fast_qnext(machine, instr, ops, pc_next, syscalls):
    d = ops[0]
    channel = int(machine.regs[d])
    if machine.trap_policy.strict_qat and channel >= machine.nbits:
        machine.trap(
            TrapCause.QAT_FAULT,
            detail=f"channel {channel} out of range for "
                   f"{machine.nbits}-channel AoB",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    machine.regs[d] = machine.qat.next(ops[1], channel) & 0xFFFF
    return pc_next


def _fast_qpop(machine, instr, ops, pc_next, syscalls):
    d = ops[0]
    channel = int(machine.regs[d])
    if machine.trap_policy.strict_qat and channel >= machine.nbits:
        machine.trap(
            TrapCause.QAT_FAULT,
            detail=f"channel {channel} out of range for "
                   f"{machine.nbits}-channel AoB",
            instruction=instr.render(),
            resume_pc=pc_next,
        )
    value = machine.qat.pop_after(ops[1], channel)
    if value > 0xFFFF:
        if machine.trap_policy.strict_qat:
            machine.trap(
                TrapCause.QAT_FAULT,
                detail=f"pop after channel {channel} counted {value} "
                       f"ones, exceeding the 16-bit destination",
                instruction=instr.render(),
                resume_pc=pc_next,
            )
        value = 0xFFFF
    machine.regs[d] = value
    return pc_next


#: mnemonic -> fast handler; covers every entry of :data:`INSTRUCTIONS`.
FAST_HANDLERS = {
    "add": _fast_add,
    "addf": _fast_addf,
    "and": _fast_and,
    "brf": _fast_brf,
    "brt": _fast_brt,
    "copy": _fast_copy,
    "float": _fast_float,
    "int": _fast_int,
    "jumpr": _fast_jumpr,
    "lex": _fast_lex,
    "lhi": _fast_lhi,
    "load": _fast_load,
    "mul": _fast_mul,
    "mulf": _fast_mulf,
    "neg": _fast_neg,
    "negf": _fast_negf,
    "not": _fast_not,
    "or": _fast_or,
    "recip": _fast_recip,
    "shift": _fast_shift,
    "slt": _fast_slt,
    "store": _fast_store,
    "sys": _fast_sys,
    "xor": _fast_xor,
    "qand": _fast_qand,
    "qccnot": _fast_qccnot,
    "qcnot": _fast_qcnot,
    "qcswap": _fast_qcswap,
    "qhad": _fast_qhad,
    "qmeas": _fast_qmeas,
    "qnext": _fast_qnext,
    "qnot": _fast_qnot,
    "qone": _fast_qone,
    "qor": _fast_qor,
    "qpop": _fast_qpop,
    "qswap": _fast_qswap,
    "qxor": _fast_qxor,
    "qzero": _fast_qzero,
}

assert set(FAST_HANDLERS) == set(INSTRUCTIONS), "fast dispatch table out of sync"


def execute(machine, instr: Instr, syscalls=None) -> Effects:
    """Execute ``instr`` on ``machine`` (PC already points at it).

    The observed single step: runs the instruction's
    :data:`FAST_HANDLERS` entry and wraps it with what the stripped
    loops leave out -- the dynamic :class:`Effects` timing models
    consume, the ``cpu.syscalls`` counter and Qat op timing under
    telemetry, and the flight recorder's retire event.  Advances the PC
    and ``instret``.
    """
    m = instr.mnemonic
    handler = FAST_HANDLERS.get(m)
    if handler is None:
        machine.trap(
            TrapCause.ILLEGAL_OPCODE,
            detail=f"no executor for {m!r}",
            instruction=m,
        )
    words = INSTRUCTIONS[m].words
    pc = machine.pc
    ops = instr.ops
    # Taken-ness is the branch condition, read before the handler runs:
    # a taken branch redirects fetch even when its target is the
    # fallthrough address (zero offset, or ``jumpr`` to the next word).
    if m == "brt" or m == "brf":
        taken = (int(machine.regs[ops[0]]) != 0) == (m == "brt")
    else:
        taken = m == "jumpr"

    # Flight recorder: capture the raw word(s) *before* execution so a
    # store over its own encoding still records what actually ran.
    fr = _flight.RECORDER
    if fr.enabled:
        raw = (int(machine.mem[pc]),) if words == 1 else (
            int(machine.mem[pc]), int(machine.mem[(pc + 1) & 0xFFFF]))
    t0 = 0
    if _obs.active:
        if m[0] == "q":
            t0 = _time.perf_counter_ns()
        elif m == "sys":
            _obs.current().metrics.counter("cpu.syscalls").inc()

    next_pc = handler(machine, instr, ops, (pc + words) & 0xFFFF, syscalls)
    machine.pc = next_pc
    machine.instret += 1
    if fr.enabled:
        fr.note_retire(pc, raw)
    if t0 and _obs.active:
        _obs.current().qat_executed(m, t0)
    return Effects(m, next_pc, taken)

