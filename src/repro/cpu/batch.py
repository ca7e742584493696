"""NumPy-batched functional simulator: thousands of machines per step.

Fault campaigns replay the same golden program under thousands of
seeded bit flips, and bench sweeps are embarrassingly batchable -- but
the per-machine simulators pay Python dispatch per instruction per
machine.  This module turns the machine axis into an *array* axis:

- **Array-of-machines state** (:class:`BatchMachines`): GPRs are an
  ``(N, 16)`` uint16 matrix, memory an ``(N, 65536)`` uint16 matrix
  on its own anonymous mapping (:func:`_lane_memory`: untouched words
  cost no RSS, whatever the lane count),
  PC / instret / halted / parked are per-lane vectors, and the Qat
  register file gains a leading lane axis
  (:class:`BatchDenseQat` / :class:`BatchREQat`).
- **Divergence grouping** (:meth:`BatchFunctionalSimulator.run`): every
  step, active lanes are grouped by the raw instruction word(s) they
  are about to execute -- *not* by PC, so lanes at different addresses
  running the same word still share one dispatch, and self-modifying
  code or memory faults never consult a stale predecode (the fetch
  re-reads the words each step).  Each group resolves its
  :class:`~repro.cpu.fastpath.Predecoded` entry through the same
  process-wide intern table as the fast path and dispatches a single
  :data:`BATCH_HANDLERS` call: one NumPy expression over the group.
- **The scalar handlers for everything else** (:func:`_b_scalar`): a
  lane that does anything other than the vectorized common case runs
  the scalar :data:`~repro.cpu.exec_core.FAST_HANDLERS` entry on a
  :class:`LaneState` view of itself -- every trap, ``sys``,
  ``recip``/``float``/``int``, undecodable words, the watchdog, and
  fault events (:func:`repro.faults.inject.apply_event`).  Vector
  handlers only mask the lanes the active trap-policy knob would trap
  and hand those over unexecuted, so trap records, detail strings and
  policy actions are the serial ones by construction.  Under the
  default ``raise`` policy a trapped lane is **parked** (removed from
  the active set) with ``errors[lane]`` holding the raised error's
  ``str()``, exactly what a serial campaign run records; ``halt`` and
  ``vector`` policies update the lane and it keeps going.  A trapped
  instruction never retires.

Flight-recorder semantics (documented batch-mode downgrade): trap,
syscall, and fault-injection events are recorded per lane like the
serial paths, but the per-instruction *retire* stream is dropped --
one batched dispatch retires many lanes and an interleaved per-lane
retire ring would be noise at 1/N the useful depth.  Post-mortems of a
batched campaign therefore show marks, faults, traps, and syscalls
only.

The fault-campaign runner (:mod:`repro.faults.campaign`) packs run
shards into lane batches and classifies each lane exactly like the
serial runner; ``tests/test_batch.py`` holds the differential suite
asserting final-state digests, trap records, and campaign report bytes
match the serial path.
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.aob import AoB
from repro.aob.bitvector import MAX_DENSE_WAYS, QAT_WAYS
from repro.aob.hadamard import hadamard_words
from repro.aob import kernels
from repro.bf16 import vector as bf16_vec
from repro.cpu import fastpath as _fastpath
from repro.cpu.qat_backend import MAX_RE_WAYS, REQatBackend
from repro.cpu.state import MachineState
from repro.cpu.syscalls import SyscallHandler
from repro.errors import ReproError, SimulatorError
from repro.faults.inject import apply_event
from repro.faults.traps import TrapCause, TrapDelivered, TrapPolicy
from repro.isa.instructions import INSTRUCTIONS
from repro.isa.registers import NUM_GPRS, NUM_QAT_REGS
from repro.obs import runtime as _obs
from repro.pattern import ChunkStore, PatternVector
from repro.utils.bits import top_mask, words_for_bits

_MEM_WORDS = 1 << 16
_BF16_EXP_MASK = 0x7F80
_WORD_FULL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: Group-key sentinel for "no second word" (one-word instruction or a
#: two-word major at the last address).  Word values are 16-bit, so
#: 0x10000 can never collide with a real second word.
_NO_WORD2 = 0x10000


def _lane_memory(n: int) -> np.ndarray:
    """Zeroed ``(n, 65536)`` uint16 lane memory on a fresh anonymous
    mapping, unmapped when the array dies.

    ``np.zeros`` would take it from malloc: a fresh, lazily zeroed
    mapping only while the size is above glibc's mmap threshold, which
    rises to the size of each mapping freed (up to 32 MiB).  A campaign
    whose lane counts vary under 256 would then get its later matrices
    from the heap, zeroed by ``memset`` -- every page resident, and the
    process's peak RSS hanging on the order of the lane counts.  Its
    own mapping keeps only the words a lane touches resident.
    """
    return np.frombuffer(
        mmap.mmap(-1, n * _MEM_WORDS * 2), dtype=np.uint16
    ).reshape(n, _MEM_WORDS)


# ---------------------------------------------------------------------------
# Batched Qat substrates
# ---------------------------------------------------------------------------

class BatchDenseQat:
    """Dense substrate with a leading lane axis: ``(N, 256, words)``.

    Gates take a ``lanes`` index vector and run as one fancy-indexed
    NumPy expression over the whole divergence group; the data layout
    and the bit-level semantics are exactly those of
    :class:`~repro.cpu.qat_backend.DenseQatBackend` /
    :mod:`repro.aob.kernels` (top-word masking invariant included).
    """

    name = "dense"

    def __init__(self, n: int, ways: int):
        if not 0 <= ways <= MAX_DENSE_WAYS:
            raise SimulatorError(
                f"dense Qat backend supports ways in [0, {MAX_DENSE_WAYS}], "
                f"got {ways}; the 're' backend (run-length compressed) "
                f"supports up to {MAX_RE_WAYS}-way entanglement"
            )
        self.n = n
        self.ways = ways
        self.nbits = 1 << ways
        self.qregs = np.zeros(
            (n, NUM_QAT_REGS, words_for_bits(self.nbits)), dtype=np.uint64
        )

    # -- gates --------------------------------------------------------------

    def binary(self, op: str, lanes, d: int, a: int, b: int) -> None:
        q = self.qregs
        if op == "and":
            q[lanes, d] = q[lanes, a] & q[lanes, b]
        elif op == "or":
            q[lanes, d] = q[lanes, a] | q[lanes, b]
        elif op == "xor":
            q[lanes, d] = q[lanes, a] ^ q[lanes, b]
        else:  # pragma: no cover - table-driven callers
            raise SimulatorError(f"unknown Qat binary op {op!r}")

    def ccnot(self, lanes, d: int, b: int, c: int) -> None:
        self.qregs[lanes, d] ^= self.qregs[lanes, b] & self.qregs[lanes, c]

    def cnot(self, lanes, d: int, c: int) -> None:
        self.qregs[lanes, d] ^= self.qregs[lanes, c]

    def cswap(self, lanes, a: int, b: int, ctrl: int) -> None:
        q = self.qregs
        diff = (q[lanes, a] ^ q[lanes, b]) & q[lanes, ctrl]
        q[lanes, a] ^= diff
        q[lanes, b] ^= diff

    def swap(self, lanes, a: int, b: int) -> None:
        q = self.qregs
        tmp = q[lanes, a].copy()
        q[lanes, a] = q[lanes, b]
        q[lanes, b] = tmp

    def invert(self, lanes, d: int) -> None:
        inverted = ~self.qregs[lanes, d]
        inverted[:, -1] &= top_mask(self.nbits)
        self.qregs[lanes, d] = inverted

    def zero(self, lanes, d: int) -> None:
        self.qregs[lanes, d] = 0

    def one(self, lanes, d: int) -> None:
        ones = np.full(
            (len(lanes), self.qregs.shape[2]), _WORD_FULL, dtype=np.uint64
        )
        ones[:, -1] = top_mask(self.nbits)
        self.qregs[lanes, d] = ones

    def had(self, lanes, d: int, k: int) -> None:
        self.qregs[lanes, d] = hadamard_words(self.ways, k)

    # -- measurement --------------------------------------------------------

    def meas(self, lanes, reg: int, channels: np.ndarray) -> np.ndarray:
        # Vectorized k_meas: channel modulo the AoB length, one-word probe.
        ch = channels & (self.nbits - 1)
        rows = self.qregs[lanes, reg]
        words = rows[np.arange(rows.shape[0]), ch >> 6]
        return (
            (words >> (ch & 63).astype(np.uint64)) & np.uint64(1)
        ).astype(np.uint16)

    def next(self, lanes, reg: int, channels: np.ndarray) -> np.ndarray:
        # Data-dependent scan: per-lane kernel probes (readout is rare).
        return np.array(
            [kernels.k_next(self.qregs[int(lane), reg], int(ch), self.nbits)
             for lane, ch in zip(lanes, channels)],
            dtype=np.int64,
        )

    def pop_after(self, lanes, reg: int, channels: np.ndarray) -> np.ndarray:
        return np.array(
            [kernels.k_pop_after(self.qregs[int(lane), reg], int(ch),
                                 self.nbits)
             for lane, ch in zip(lanes, channels)],
            dtype=np.int64,
        )

    # -- fault / readout surfaces -------------------------------------------

    def flip_bit(self, lane: int, reg: int, word: int, bit: int) -> None:
        self.qregs[lane, reg, word] ^= np.uint64(1 << bit)

    def read(self, lane: int, reg: int) -> AoB:
        return AoB(self.ways, self.qregs[lane, reg].copy())


class BatchREQat:
    """Run-length compressed substrate: lanes over one shared store.

    Every lane's registers intern into one
    :class:`~repro.pattern.ChunkStore` -- a fresh one, or ``store``: a
    fault campaign hands each batch a fork of its golden run's store, so
    the batch's symbols die with it.  Because the store is shared, equal
    register values have equal run tuples, and the batch interns each
    distinct :class:`~repro.pattern.PatternVector` once: the register
    file is an ``(N, 256)`` matrix of value ids (:attr:`vids`) over one
    table of immutable vectors.

    Each gate groups its lanes by operand value ids, evaluates the gate
    once per distinct group on a scratch
    :class:`~repro.cpu.qat_backend.REQatBackend` (the serial semantics,
    by construction), and writes the result's id to every lane of the
    group.  In a fault campaign nearly every lane holds the same
    operands at every step, so a gate costs one run walk instead of one
    per lane.  Telemetry still counts one compressed op per lane.
    """

    name = "re"

    def __init__(self, n: int, ways: int, store: ChunkStore | None = None):
        #: evaluates one gate per operand group (registers set per call)
        self._scratch = REQatBackend(ways, store=store)
        self.store = self._scratch.store
        self.n = n
        self.ways = ways
        self.nbits = 1 << ways
        self._values: list[PatternVector] = []
        self._ids: dict[tuple, int] = {}
        zero = self._intern(self._scratch.regs[0])
        #: value id of every lane's every register
        self.vids = np.full((n, NUM_QAT_REGS), zero, dtype=np.intp)

    def _intern(self, value: PatternVector) -> int:
        vid = self._ids.get(value.runs)
        if vid is None:
            vid = self._ids[value.runs] = len(self._values)
            self._values.append(value)
        return vid

    def vector(self, lane: int, reg: int) -> PatternVector:
        """The compressed value of lane ``lane``'s register ``reg``."""
        return self._values[self.vids[lane, reg]]

    def _grouped(self, lanes, operands: tuple, dests: tuple, op: str,
                 gate) -> None:
        """Run ``gate(scratch)`` once per distinct operand-value group.

        ``operands`` are the registers the gate reads, ``dests`` the
        ones it writes (the first of them is what the serial backend's
        ``qat.re.runs.<op>`` counter measures).
        """
        lanes = np.asarray(lanes)
        vids = self.vids
        if not operands:
            groups = [((), lanes)]
        else:
            keys = vids[np.ix_(lanes, operands)]
            if (keys == keys[0]).all():
                groups = [(keys[0].tolist(), lanes)]
            else:
                rows, inverse = np.unique(keys, axis=0, return_inverse=True)
                inverse = inverse.ravel()
                groups = [(row.tolist(), lanes[inverse == g])
                          for g, row in enumerate(rows)]
        regs = self._scratch.regs
        values = self._values
        for row, members in groups:
            for reg, vid in zip(operands, row):
                regs[reg] = values[vid]
            gate(self._scratch)  # counts the group's first lane
            results = [self._intern(regs[d]) for d in dests]
            for d, vid in zip(dests, results):
                vids[members, d] = vid
            if _obs.active and len(members) > 1:
                more = len(members) - 1
                metrics = _obs.current().metrics
                metrics.counter("qat.re.ops").add(more)
                metrics.counter(f"qat.re.runs.{op}").add(
                    more * values[results[0]].num_runs)

    def binary(self, op: str, lanes, d: int, a: int, b: int) -> None:
        self._grouped(lanes, (a, b), (d,), op,
                      lambda backend: backend.binary(op, d, a, b))

    def ccnot(self, lanes, d: int, b: int, c: int) -> None:
        self._grouped(lanes, (d, b, c), (d,), "ccnot",
                      lambda backend: backend.ccnot(d, b, c))

    def cnot(self, lanes, d: int, c: int) -> None:
        self._grouped(lanes, (d, c), (d,), "cnot",
                      lambda backend: backend.cnot(d, c))

    def cswap(self, lanes, a: int, b: int, ctrl: int) -> None:
        self._grouped(lanes, (a, b, ctrl), (a, b), "cswap",
                      lambda backend: backend.cswap(a, b, ctrl))

    def swap(self, lanes, a: int, b: int) -> None:
        self._grouped(lanes, (a, b), (a, b), "swap",
                      lambda backend: backend.swap(a, b))

    def invert(self, lanes, d: int) -> None:
        self._grouped(lanes, (d,), (d,), "not",
                      lambda backend: backend.invert(d))

    def zero(self, lanes, d: int) -> None:
        self._grouped(lanes, (), (d,), "zero",
                      lambda backend: backend.zero(d))

    def one(self, lanes, d: int) -> None:
        self._grouped(lanes, (), (d,), "one",
                      lambda backend: backend.one(d))

    def had(self, lanes, d: int, k: int) -> None:
        self._grouped(lanes, (), (d,), "had",
                      lambda backend: backend.had(d, k))

    def _probe(self, lanes, reg: int, channels, probe) -> np.ndarray:
        """Per-lane readout, evaluated once per distinct (value, channel)."""
        vids = self.vids[np.asarray(lanes), reg].tolist()
        seen: dict[tuple[int, int], int] = {}
        out = []
        for vid, ch in zip(vids, np.asarray(channels).tolist()):
            result = seen.get((vid, ch))
            if result is None:
                result = seen[vid, ch] = probe(self._values[vid], ch)
            out.append(result)
        return np.array(out, dtype=np.int64)

    def meas(self, lanes, reg: int, channels: np.ndarray) -> np.ndarray:
        return self._probe(lanes, reg, channels, PatternVector.meas)

    def next(self, lanes, reg: int, channels: np.ndarray) -> np.ndarray:
        return self._probe(lanes, reg, channels, PatternVector.next)

    def pop_after(self, lanes, reg: int, channels: np.ndarray) -> np.ndarray:
        return self._probe(lanes, reg, channels, PatternVector.pop_after)

    def flip_bit(self, lane: int, reg: int, word: int, bit: int) -> None:
        scratch = self._scratch
        scratch.regs[reg] = self.vector(lane, reg)
        scratch.flip_bit(reg, word, bit)
        self.vids[lane, reg] = self._intern(scratch.regs[reg])

    def read(self, lane: int, reg: int) -> AoB:
        return self.vector(lane, reg).to_aob()


def _make_batch_qat(spec, n: int, ways: int):
    """Build the batch substrate ``spec`` names, or check a built one."""
    if isinstance(spec, (BatchDenseQat, BatchREQat)):
        if (spec.n, spec.ways) != (n, ways):
            raise SimulatorError(
                f"batch Qat substrate is {spec.n} lanes at {spec.ways} "
                f"ways but the batch wants {n} lanes at {ways} ways"
            )
        return spec
    if spec == "dense":
        return BatchDenseQat(n, ways)
    if spec == "re":
        return BatchREQat(n, ways)
    raise SimulatorError(
        f"unknown Qat backend spec {spec!r} for the batch simulator "
        f"(expected 'dense' or 're')"
    )


# ---------------------------------------------------------------------------
# Array-of-machines state
# ---------------------------------------------------------------------------

class BatchMachines:
    """Architectural state of ``n`` machines over a leading lane axis."""

    def __init__(self, n: int, ways: int = QAT_WAYS,
                 trap_policy: TrapPolicy | None = None,
                 qat_backend="dense"):
        if n <= 0:
            raise SimulatorError(f"batch size must be positive, got {n}")
        self.qat = _make_batch_qat(qat_backend, n, ways)
        self.n = n
        self.ways = ways
        self.nbits = 1 << ways
        self.regs = np.zeros((n, NUM_GPRS), dtype=np.uint16)
        self.mem = _lane_memory(n)
        self.pc = np.zeros(n, dtype=np.int64)
        self.instret = np.zeros(n, dtype=np.int64)
        self.halted = np.zeros(n, dtype=bool)
        #: lanes whose trap raised under the ``raise`` policy: out of the
        #: active set, with the would-be exception text in ``errors``
        self.parked = np.zeros(n, dtype=bool)
        self.output: list[list[str]] = [[] for _ in range(n)]
        self.traps: list[list] = [[] for _ in range(n)]
        self.errors: list[str | None] = [None] * n
        self.trap_policy = (
            trap_policy if trap_policy is not None else TrapPolicy()
        )

    def load_program(self, words, origin: int = 0) -> None:
        """Copy one program image into every lane's memory."""
        words = np.asarray([int(w) & 0xFFFF for w in words], dtype=np.uint16)
        if origin + words.size > _MEM_WORDS:
            raise SimulatorError("program image exceeds memory")
        self.mem[:, origin:origin + words.size] = words
        self.pc[:] = origin

    def active_lanes(self) -> np.ndarray:
        return np.flatnonzero(~(self.halted | self.parked))

    def retire(self, lanes, pc_next) -> None:
        self.pc[lanes] = pc_next
        self.instret[lanes] += 1

    def read_qreg(self, lane: int, reg: int) -> AoB:
        return self.qat.read(lane, reg)

    def lane(self, i: int) -> "LaneState":
        """Lane ``i`` as a :class:`MachineState` for the scalar code."""
        return LaneState(self, i)

    def on_lane(self, i: int, action, *args) -> None:
        """Run ``action(view, *args)`` on lane ``i``'s :meth:`lane` view.

        The view's pc, instret and halted flag are written back after
        it.  A trap that the halt/vector policy delivered has already
        updated the view; one that raised (a :class:`ReproError`) parks
        the lane with the error's text, as a serial campaign run
        records it.
        """
        view = self.lane(i)
        try:
            action(view, *args)
        except TrapDelivered:
            pass
        except ReproError as exc:
            self.errors[i] = str(exc)
            self.parked[i] = True
        self.pc[i] = view.pc
        self.instret[i] = view.instret
        self.halted[i] = view.halted


class _LaneQat:
    """What scalar code reaches of a batch substrate on one lane.

    Only a ``qreg`` fault flip and strict ``qpop``'s overflow probe get
    here; every other Qat operation runs vectorized.
    """

    __slots__ = ("qat", "lane")

    def __init__(self, qat, lane: int):
        self.qat = qat
        self.lane = lane

    def flip_bit(self, reg: int, word: int, bit: int) -> None:
        self.qat.flip_bit(self.lane, reg, word, bit)

    def pop_after(self, reg: int, channel: int) -> int:
        return int(self.qat.pop_after([self.lane], reg, [channel])[0])


class LaneState(MachineState):
    """Lane ``lane`` of ``bm`` as a :class:`MachineState`.

    ``regs`` and ``mem`` are the lane's rows, so writes land in the
    batch; ``output``, ``traps`` and ``trap_policy`` are the lane's own
    objects; ``pc``, ``instret`` and ``halted`` are copies that
    :meth:`BatchMachines.on_lane` writes back.  There is no clock
    (``sys`` service 3 reads 0, trap records carry no cycle) and no
    predecode cache (the batch loop re-fetches every step).
    """

    def __init__(self, bm: BatchMachines, lane: int):
        # Not MachineState.__init__: it would allocate a whole machine.
        self.qat = _LaneQat(bm.qat, lane)
        self.ways = bm.ways
        self.nbits = bm.nbits
        self.regs = bm.regs[lane]
        self.mem = bm.mem[lane]
        self.pc = int(bm.pc[lane])
        self.halted = bool(bm.halted[lane])
        self.output = bm.output[lane]
        self.instret = int(bm.instret[lane])
        self.trap_policy = bm.trap_policy
        self.traps = bm.traps[lane]
        self.cycle_provider = None
        self._predecode = None


# ---------------------------------------------------------------------------
# Batched mnemonic handlers
# ---------------------------------------------------------------------------
#
# Signature: ``handler(bm, entry, lanes, pc_next)``.  ``lanes`` is the
# divergence group's lane-index vector, ``pc_next`` the per-lane
# sequential successor.  Handlers own retirement: surviving lanes get
# ``bm.retire(lanes, next_pc)`` (branches pass their redirected
# targets); lanes that trap never retire, mirroring the serial paths.

#: ``sys`` services for every lane; without a cycle source service 3
#: reads 0, as on the functional simulator
_SYSCALLS = SyscallHandler()


def _scalar_step(view, entry, pc_next: int) -> None:
    """One step of ``entry`` on a lane view, as :func:`fastpath.run` takes it."""
    if entry.handler is None:
        view.trap(TrapCause.ILLEGAL_OPCODE, detail=entry.error)
    view.pc = entry.handler(view, entry.instr, entry.ops, pc_next, _SYSCALLS)
    view.instret += 1


def _b_scalar(bm, entry, lanes, pc_next):
    """Run ``entry`` lane by lane on its scalar handler."""
    for lane, nxt in zip(lanes.tolist(), pc_next.tolist()):
        bm.on_lane(lane, _scalar_step, entry, nxt)


def _split(bm, entry, lanes, pc_next, trap, *values):
    """Hand the lanes ``trap`` marks to :func:`_b_scalar`, where their
    trap fires; return the other lanes, their ``pc_next`` and ``values``."""
    if not trap.any():
        return (lanes, pc_next, *values)
    _b_scalar(bm, entry, lanes[trap], pc_next[trap])
    keep = ~trap
    return (lanes[keep], pc_next[keep], *(v[keep] for v in values))


def _b_add(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    bm.regs[lanes, d] += bm.regs[lanes, s]
    bm.retire(lanes, pc_next)


def _b_and(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    bm.regs[lanes, d] &= bm.regs[lanes, s]
    bm.retire(lanes, pc_next)


def _b_or(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    bm.regs[lanes, d] |= bm.regs[lanes, s]
    bm.retire(lanes, pc_next)


def _b_xor(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    bm.regs[lanes, d] ^= bm.regs[lanes, s]
    bm.retire(lanes, pc_next)


def _b_mul(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    bm.regs[lanes, d] *= bm.regs[lanes, s]
    bm.retire(lanes, pc_next)


def _b_copy(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    bm.regs[lanes, d] = bm.regs[lanes, s]
    bm.retire(lanes, pc_next)


def _b_neg(bm, entry, lanes, pc_next):
    d = entry.ops[0]
    bm.regs[lanes, d] = -bm.regs[lanes, d]
    bm.retire(lanes, pc_next)


def _b_not(bm, entry, lanes, pc_next):
    d = entry.ops[0]
    bm.regs[lanes, d] = ~bm.regs[lanes, d]
    bm.retire(lanes, pc_next)


def _b_shift(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    amount = bm.regs[lanes, s].astype(np.int64)
    amount = np.where(amount >= 0x8000, amount - 0x10000, amount)
    value = bm.regs[lanes, d].astype(np.int64)
    left = value << np.clip(amount, 0, 15)
    right = value >> np.clip(-amount, 0, 63)
    result = np.where(
        (amount >= 16) | (amount <= -16), 0,
        np.where(amount >= 0, left, right),
    )
    bm.regs[lanes, d] = result & 0xFFFF
    bm.retire(lanes, pc_next)


def _b_slt(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    a = bm.regs[lanes, d].astype(np.int64)
    b = bm.regs[lanes, s].astype(np.int64)
    a = np.where(a >= 0x8000, a - 0x10000, a)
    b = np.where(b >= 0x8000, b - 0x10000, b)
    bm.regs[lanes, d] = (a < b).astype(np.uint16)
    bm.retire(lanes, pc_next)


def _b_lex(bm, entry, lanes, pc_next):
    imm = entry.ops[1]
    value = imm & 0xFF if (imm & 0x80) == 0 else (imm & 0xFF) | 0xFF00
    bm.regs[lanes, entry.ops[0]] = value
    bm.retire(lanes, pc_next)


def _b_lhi(bm, entry, lanes, pc_next):
    d = entry.ops[0]
    high = (entry.ops[1] & 0xFF) << 8
    bm.regs[lanes, d] = (bm.regs[lanes, d] & 0x00FF) | high
    bm.retire(lanes, pc_next)


def _b_brf(bm, entry, lanes, pc_next):
    taken = bm.regs[lanes, entry.ops[0]] == 0
    bm.retire(lanes, np.where(taken, (pc_next + entry.ops[1]) & 0xFFFF,
                              pc_next))


def _b_brt(bm, entry, lanes, pc_next):
    taken = bm.regs[lanes, entry.ops[0]] != 0
    bm.retire(lanes, np.where(taken, (pc_next + entry.ops[1]) & 0xFFFF,
                              pc_next))


def _b_jumpr(bm, entry, lanes, pc_next):
    bm.retire(lanes, bm.regs[lanes, entry.ops[0]].astype(np.int64))


def _fenced(bm, entry, lanes, pc_next):
    """Addresses of a load/store group; lanes beyond the fence go scalar."""
    addr = bm.regs[lanes, entry.ops[1]].astype(np.int64)
    fence = bm.trap_policy.mem_fence
    if fence is None:
        return lanes, pc_next, addr
    return _split(bm, entry, lanes, pc_next, addr >= fence, addr)


def _b_load(bm, entry, lanes, pc_next):
    lanes, pc_next, addr = _fenced(bm, entry, lanes, pc_next)
    bm.regs[lanes, entry.ops[0]] = bm.mem[lanes, addr]
    bm.retire(lanes, pc_next)


def _b_store(bm, entry, lanes, pc_next):
    lanes, pc_next, addr = _fenced(bm, entry, lanes, pc_next)
    bm.mem[lanes, addr] = bm.regs[lanes, entry.ops[0]]
    bm.retire(lanes, pc_next)


def _finish_bf16(bm, entry, lanes, pc_next, result):
    """Write back an ``addf``/``mulf`` result; under ``trap_bf16`` the
    lanes whose result is non-finite go scalar."""
    result = result.astype(np.uint16)
    if bm.trap_policy.trap_bf16:
        lanes, pc_next, result = _split(
            bm, entry, lanes, pc_next,
            (result & _BF16_EXP_MASK) == _BF16_EXP_MASK, result)
    bm.regs[lanes, entry.ops[0]] = result
    bm.retire(lanes, pc_next)


def _b_addf(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    _finish_bf16(bm, entry, lanes, pc_next,
                 bf16_vec.add(bm.regs[lanes, d], bm.regs[lanes, s]))


def _b_mulf(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    _finish_bf16(bm, entry, lanes, pc_next,
                 bf16_vec.mul(bm.regs[lanes, d], bm.regs[lanes, s]))


def _b_negf(bm, entry, lanes, pc_next):
    d = entry.ops[0]
    bm.regs[lanes, d] = bf16_vec.neg(bm.regs[lanes, d]).astype(np.uint16)
    bm.retire(lanes, pc_next)


def _b_qand(bm, entry, lanes, pc_next):
    bm.qat.binary("and", lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qor(bm, entry, lanes, pc_next):
    bm.qat.binary("or", lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qxor(bm, entry, lanes, pc_next):
    bm.qat.binary("xor", lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qccnot(bm, entry, lanes, pc_next):
    bm.qat.ccnot(lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qcnot(bm, entry, lanes, pc_next):
    bm.qat.cnot(lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qcswap(bm, entry, lanes, pc_next):
    bm.qat.cswap(lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qswap(bm, entry, lanes, pc_next):
    bm.qat.swap(lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qnot(bm, entry, lanes, pc_next):
    bm.qat.invert(lanes, entry.ops[0])
    bm.retire(lanes, pc_next)


def _b_qzero(bm, entry, lanes, pc_next):
    bm.qat.zero(lanes, entry.ops[0])
    bm.retire(lanes, pc_next)


def _b_qone(bm, entry, lanes, pc_next):
    bm.qat.one(lanes, entry.ops[0])
    bm.retire(lanes, pc_next)


def _b_qhad(bm, entry, lanes, pc_next):
    if bm.trap_policy.strict_qat and entry.ops[1] >= bm.ways:
        _b_scalar(bm, entry, lanes, pc_next)
        return
    bm.qat.had(lanes, entry.ops[0], entry.ops[1])
    bm.retire(lanes, pc_next)


def _channels(bm, entry, lanes, pc_next):
    """Channel operands of a meas/next/pop group; under ``strict_qat``
    the lanes whose channel is out of range go scalar."""
    channels = bm.regs[lanes, entry.ops[0]].astype(np.int64)
    if not bm.trap_policy.strict_qat:
        return lanes, pc_next, channels
    return _split(bm, entry, lanes, pc_next, channels >= bm.nbits, channels)


def _b_qmeas(bm, entry, lanes, pc_next):
    lanes, pc_next, channels = _channels(bm, entry, lanes, pc_next)
    bm.regs[lanes, entry.ops[0]] = bm.qat.meas(lanes, entry.ops[1], channels)
    bm.retire(lanes, pc_next)


def _b_qnext(bm, entry, lanes, pc_next):
    lanes, pc_next, channels = _channels(bm, entry, lanes, pc_next)
    values = bm.qat.next(lanes, entry.ops[1], channels)
    bm.regs[lanes, entry.ops[0]] = (values & 0xFFFF).astype(np.uint16)
    bm.retire(lanes, pc_next)


def _b_qpop(bm, entry, lanes, pc_next):
    lanes, pc_next, channels = _channels(bm, entry, lanes, pc_next)
    values = bm.qat.pop_after(lanes, entry.ops[1], channels)
    if bm.trap_policy.strict_qat:
        lanes, pc_next, values = _split(bm, entry, lanes, pc_next,
                                        values > 0xFFFF, values)
    bm.regs[lanes, entry.ops[0]] = np.minimum(values, 0xFFFF).astype(np.uint16)
    bm.retire(lanes, pc_next)


#: mnemonic -> batch handler; covers every entry of ``INSTRUCTIONS``.
BATCH_HANDLERS = {
    "add": _b_add,
    "addf": _b_addf,
    "and": _b_and,
    "brf": _b_brf,
    "brt": _b_brt,
    "copy": _b_copy,
    "float": _b_scalar,
    "int": _b_scalar,
    "jumpr": _b_jumpr,
    "lex": _b_lex,
    "lhi": _b_lhi,
    "load": _b_load,
    "mul": _b_mul,
    "mulf": _b_mulf,
    "neg": _b_neg,
    "negf": _b_negf,
    "not": _b_not,
    "or": _b_or,
    "recip": _b_scalar,
    "shift": _b_shift,
    "slt": _b_slt,
    "store": _b_store,
    "sys": _b_scalar,
    "xor": _b_xor,
    "qand": _b_qand,
    "qccnot": _b_qccnot,
    "qcnot": _b_qcnot,
    "qcswap": _b_qcswap,
    "qhad": _b_qhad,
    "qmeas": _b_qmeas,
    "qnext": _b_qnext,
    "qnot": _b_qnot,
    "qone": _b_qone,
    "qor": _b_qor,
    "qpop": _b_qpop,
    "qswap": _b_qswap,
    "qxor": _b_qxor,
    "qzero": _b_qzero,
}

assert set(BATCH_HANDLERS) == set(INSTRUCTIONS), \
    "batch dispatch table out of sync"


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

def apply_lane_event(bm: BatchMachines, lane: int, event) -> None:
    """Flip the bit ``event`` names in lane ``lane`` of ``bm``:
    :func:`repro.faults.inject.apply_event` on the lane's view.

    ``latch`` events degrade to an architectural PC flip exactly as
    they do on the serial functional simulator.
    """
    bm.on_lane(lane, apply_event, event)


# ---------------------------------------------------------------------------
# The batched run loop
# ---------------------------------------------------------------------------

class BatchFunctionalSimulator:
    """Functional simulation of ``n`` machines in lockstep.

    Divergence-grouped execution: each step, active lanes are grouped
    by the raw instruction word(s) under their PC, each group's
    :class:`~repro.cpu.fastpath.Predecoded` entry is resolved through
    the process-wide intern table, and one :data:`BATCH_HANDLERS` call
    executes the whole group (undecodable words trap on
    :func:`_b_scalar`).  Lanes halt independently (``sys 0``) or
    park on a raised trap; :meth:`run` returns when no lane is active.
    """

    def __init__(self, n: int, ways: int = QAT_WAYS,
                 trap_policy: TrapPolicy | None = None,
                 qat_backend="dense"):
        self.machines = BatchMachines(n, ways=ways, trap_policy=trap_policy,
                                      qat_backend=qat_backend)
        self.n = n

    def load(self, program, origin: int | None = None) -> None:
        """Load one assembled Program (or raw words) into every lane."""
        words = getattr(program, "words", program)
        entry = getattr(program, "entry", 0) if origin is None else origin
        self.machines.load_program(words,
                                   origin=0 if origin is None else origin)
        self.machines.pc[:] = entry

    def run(self, max_steps: int = 1_000_000, plans=None,
            watchdog_detail: str | None = None) -> np.ndarray:
        """Step every lane to halt/park; returns per-lane step counts.

        ``plans`` (optional, one :class:`~repro.faults.inject.FaultPlan`
        per lane or ``None`` entries) injects each lane's due fault
        events before the step executes, exactly where the campaign
        driver does.  When the step budget is exhausted, every still-
        active lane takes the ``watchdog`` trap (``watchdog_detail``
        lets the campaign runner supply its exact serial detail string)
        and the loop ends.
        """
        bm = self.machines
        if plans is not None and len(plans) != bm.n:
            raise SimulatorError(
                f"got {len(plans)} fault plans for {bm.n} lanes"
            )
        due: list[dict[int, list]] = []
        if plans is not None:
            for plan in plans:
                by_step: dict[int, list] = {}
                if plan is not None:
                    for event in plan.events:
                        by_step.setdefault(event.step, []).append(event)
                due.append(by_step)
        lane_steps = np.zeros(bm.n, dtype=np.int64)
        step = 0
        while True:
            lanes = bm.active_lanes()
            if lanes.size == 0:
                break
            if step >= max_steps:
                for lane in lanes.tolist():
                    bm.on_lane(lane, _fastpath._watchdog, max_steps,
                               watchdog_detail)
                # The serial drivers stop stepping a machine once its
                # watchdog fires, whatever the policy action was.
                break
            if due:
                for lane in lanes:
                    for event in due[int(lane)].get(step, ()):
                        apply_lane_event(bm, int(lane), event)
                lanes = bm.active_lanes()
                if lanes.size == 0:
                    break
            pcs = bm.pc[lanes]
            word0 = bm.mem[lanes, pcs].astype(np.int64)
            two = ((word0 >> 12) == 0x8) | ((word0 >> 12) == 0x9)
            two &= pcs + 1 < _MEM_WORDS
            word1 = np.full(lanes.shape, _NO_WORD2, dtype=np.int64)
            if two.any():
                word1[two] = bm.mem[lanes[two], pcs[two] + 1]
            keys = (word0 << 17) | word1
            unique, inverse = np.unique(keys, return_inverse=True)
            for gi, key in enumerate(unique):
                members = inverse == gi
                glanes = lanes[members]
                gpcs = pcs[members]
                word2 = int(key) & 0x1FFFF
                intern_key = (
                    int(key) >> 17 if word2 == _NO_WORD2
                    else (int(key) >> 17, word2)
                )
                entry = _fastpath._INTERN.get(intern_key)
                if entry is None:
                    # Decode on a representative lane's full memory row
                    # (interns the entry; error text included).
                    entry = _fastpath._predecode(bm.mem[glanes[0]],
                                                 int(gpcs[0]))
                handler = (_b_scalar if entry.handler is None
                           else BATCH_HANDLERS[entry.mnemonic])
                handler(bm, entry, glanes, (gpcs + entry.words) & 0xFFFF)
            lane_steps[lanes] += 1
            step += 1
        return lane_steps
