"""Out-of-program span tracing for the benchmark's traced runs.

The tracer wraps public functions of the program's layers from outside:
each wrapped call records one span ``(name, start, end, parent, ident)``
in memory, where ``parent`` is the index of the enclosing span (-1 at
the top) and ``ident`` names the launch or faulted run the work belongs
to.  Self time is a span's duration minus the durations of its direct
children.  Nothing inside ``src/`` is edited: wrappers are installed on
modules already imported and, through a meta-path hook, on ``repro``
modules as they finish loading, so names bound later by
``from module import name`` pick up the wrapper too.

Forked children (the ``jobs`` fan-out's workers) restore the original
functions at fork time: that strategy is traced on the parent side only.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import os
import sys
import time
import weakref

_QAT_OPS = ("binary", "ccnot", "cnot", "cswap", "swap", "invert", "zero",
            "one", "had", "meas", "next", "pop_after", "flip_bit")

#: module -> [(attribute path, span name)].  Every entry is a public
#: function or method of the layer it names.
TARGETS: dict[str, list[tuple[str, str]]] = {
    "repro.obs.ledger": [("Ledger.record", "ledger.record")],
    "repro.asm.assembler": [("assemble", "asm.assemble")],
    "repro.cpu.functional": [
        ("FunctionalSimulator.load", "cpu.load"),
        ("FunctionalSimulator.step", "cpu.step"),
    ],
    "repro.cpu.pipeline": [
        ("PipelinedSimulator.load", "cpu.load"),
        ("PipelinedSimulator.step", "cpu.step"),
        ("PipelinedSimulator.run", "cpu.pipeline.run"),
    ],
    "repro.cpu.qat_backend": (
        [(f"DenseQatBackend.{op}", "qat.dense") for op in _QAT_OPS]
        + [(f"REQatBackend.{op}", "qat.re") for op in _QAT_OPS]
    ),
    "repro.cpu.batch": (
        [("BatchFunctionalSimulator.run", "cpu.batch.run"),
         ("BatchFunctionalSimulator.load", "cpu.batch.load"),
         ("apply_lane_event", "faults.apply_event")]
        + [(f"BatchDenseQat.{op}", "qat.dense") for op in _QAT_OPS]
        + [(f"BatchREQat.{op}", "qat.re") for op in _QAT_OPS]
    ),
    "repro.pattern.chunkstore": [
        ("ChunkStore.binop", "chunkstore.binop"),
        ("ChunkStore.intern", "chunkstore.intern"),
    ],
    "repro.faults.inject": [
        ("FaultPlan.from_seed", "faults.plan"),
        ("apply_event", "faults.apply_event"),
    ],
    "repro.faults.campaign": [
        ("golden_run", "faults.golden_run"),
        ("render_report", "campaign.report"),
        ("run_campaign", "campaign.run"),
    ],
    "repro.runtime.supervisor": [("Supervisor.run", "fanout.supervisor.run")],
}

#: Span name prefix -> layer, most specific first.  Spans that match no
#: prefix (the ``campaign.run`` root) belong to no layer: their self
#: time is glue no wrapper covers.
LAYERS = (
    ("import.", "startup"),
    ("ledger.", "repro.obs.ledger"),
    ("asm.", "repro.asm"),
    ("cpu.batch.", "repro.cpu.batch"),
    ("cpu.", "repro.cpu"),
    ("qat.", "repro.cpu.qat_backend"),
    ("chunkstore.", "repro.pattern"),
    ("faults.", "repro.faults"),
    ("fanout.", "repro.runtime"),
    ("campaign.report", "merge"),
)

#: Seed stride the campaign uses to derive a run's plan seed.
_RUN_STRIDE = 1_000_003


def layer_of(name: str) -> str | None:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return None


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.ident = "-"
        self.import_spans = False
        self.campaign_seed: int | None = None
        self.gate_hits = 0
        self.gate_misses = 0
        self._stores: weakref.WeakSet = weakref.WeakSet()
        self._undo: list[tuple] = []
        self._finder: _PatchOnLoad | None = None
        self._patched: set[str] = set()

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1,
                           self.ident))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        name, t0, _, parent, ident = self.spans[idx]
        self.spans[idx] = (name, t0, time.perf_counter(), parent, ident)

    def reset(self) -> None:
        """Drop recorded spans and store statistics (keeps wrappers)."""
        self.spans = []
        self._stack = []
        self.gate_hits = self.gate_misses = 0
        self._stores = weakref.WeakSet()

    def _wrap(self, fn, name: str):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    def _wrap_plan(self, fn, name: str):
        """``FaultPlan.from_seed`` opens a faulted run: its seed names it."""
        traced = self._wrap(fn, name)
        tracer = self

        @functools.wraps(fn)
        def plan(cls, seed, *args, **kwargs):
            if tracer.campaign_seed is not None:
                run = seed - tracer.campaign_seed * _RUN_STRIDE
                tracer.ident = f"{tracer.ident.split('/')[0]}/run{run}"
            return traced(cls, seed, *args, **kwargs)

        return plan

    # -- chunk-store statistics ----------------------------------------------

    def _store_init(self, fn):
        stores = self

        @functools.wraps(fn)
        def init(store, *args, **kwargs):
            fn(store, *args, **kwargs)
            stores._stores.add(store)

        return init

    def _store_del(self, store) -> None:
        if store in self._stores:
            self._harvest(store)

    def _harvest(self, store) -> None:
        stats = store.stats()
        self.gate_hits += stats["gate_hits"]
        self.gate_misses += stats["gate_misses"]
        self._stores.discard(store)

    def harvest_live_stores(self) -> None:
        """Fold in stores still alive (the rest reported at collection)."""
        for store in list(self._stores):
            self._harvest(store)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in loaded modules and hook future loads."""
        for name in TARGETS:
            module = sys.modules.get(name)
            if module is not None:
                self._patch_module(module)
        self._finder = _PatchOnLoad(self)
        sys.meta_path.insert(0, self._finder)
        os.register_at_fork(after_in_child=self._forked)

    def uninstall(self) -> None:
        if self._finder is not None and self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        self._finder = None
        for kind, owner, key, value in reversed(self._undo):
            if kind == "del":
                delattr(owner, key)
            else:
                setattr(owner, key, value)
        self._undo = []
        self._patched = set()

    def _forked(self) -> None:
        if self._undo:
            self.uninstall()
            self.spans = []

    def _set(self, owner, key: str, value) -> None:
        self._undo.append(("set", owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def _patch_module(self, module) -> None:
        name = module.__name__
        if name in self._patched or name not in TARGETS:
            return
        self._patched.add(name)
        for path, span in TARGETS[name]:
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(
                        self._wrap_plan(raw.__func__, span)))
                else:
                    self._set(owner, attr, self._wrap(raw, span))
            else:
                original = getattr(module, attr)
                traced = self._wrap(original, span)
                # Rebind every module that already imported the name.
                for other in list(sys.modules.values()):
                    namespace = getattr(other, "__dict__", None)
                    if not namespace:
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._set(other, key, traced)
        if name == "repro.pattern.chunkstore":
            store_cls = module.ChunkStore
            self._set(store_cls, "__init__",
                      self._store_init(store_cls.__dict__["__init__"]))
            self._undo.append(("del", store_cls, "__del__", None))
            store_cls.__del__ = lambda store, _t=self: _t._store_del(store)


class _PatchOnLoad(importlib.abc.MetaPathFinder):
    """Patches ``repro`` modules as they finish executing.

    After ``tracer.import_spans`` is set, every module loaded from a file
    is also a span ``import.lazy`` (an import deferred past start-up).
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        ours = fullname == "repro" or fullname.startswith("repro.")
        if not ours and not self.tracer.import_spans:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        tracer = self.tracer
        execute = spec.loader.exec_module

        def exec_module(module):
            idx = tracer.begin("import.lazy") if tracer.import_spans else None
            try:
                execute(module)
            finally:
                if idx is not None:
                    tracer.end(idx)
            if ours:
                tracer._patch_module(module)

        spec.loader.exec_module = exec_module
        return spec


def write_spans(path: str, spans, **extra) -> None:
    """Write spans (and ``extra`` keys) as one JSON document."""
    doc = {"fields": ["name", "start", "end", "parent", "ident"],
           "spans": spans, **extra}
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def self_times(spans) -> tuple[dict, dict]:
    """Per span name: (summed self seconds, calls).

    A call nested directly in a span of the same name (a batched Qat
    dispatch and the per-lane calls it makes) is not counted again.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0 and t1 is not None:
            child[parent] += t1 - t0
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    for idx, (name, t0, t1, parent, _) in enumerate(spans):
        if t1 is None:
            continue
        selfs[name] = selfs.get(name, 0.0) + (t1 - t0) - child[idx]
        if parent < 0 or spans[parent][0] != name:
            calls[name] = calls.get(name, 0) + 1
    return selfs, calls


def layer_shares(selfs: dict, wall: float) -> dict[str, float]:
    """Self time per layer as a share of ``wall``; ``uncovered`` is the rest."""
    out: dict[str, float] = {}
    for name, seconds in selfs.items():
        layer = layer_of(name)
        if layer is not None:
            out[layer] = out.get(layer, 0.0) + seconds
    shares = {layer: s / wall for layer, s in out.items()} if wall > 0 else {}
    shares["uncovered"] = 1.0 - sum(shares.values())
    return shares
