"""Supervised worker pool: timeouts, retries, quarantine, resume hooks.

``multiprocessing.Pool`` treats a dead or wedged worker as a fatal
event: one OOM-killed shard aborts (or stalls) a whole thousand-run
fault campaign.  The :class:`Supervisor` replaces it with a pool the
campaign layer can actually trust at the memory frontier:

- **deadlines** -- every shard gets a wall-clock budget
  (:attr:`SupervisorConfig.shard_timeout`); a worker that blows it is
  SIGKILLed and replaced, and the shard is retried;
- **crash isolation** -- a worker that dies mid-shard (``os._exit``,
  OOM kill, segfault) is detected through its process sentinel; the
  shard it held is retried on a replacement worker;
- **bounded retry with backoff** -- each failed shard is re-dispatched
  after an exponential delay, at most :attr:`SupervisorConfig.max_attempts`
  executions in total;
- **quarantine** -- a shard that exhausts its attempts is returned as a
  *toxic* :class:`ShardOutcome` (``ok=False``) instead of failing the
  run; every other shard still completes;
- **resource ceilings** -- :attr:`SupervisorConfig.worker_mem_mib`
  applies ``RLIMIT_AS`` in every worker before it touches a task,
  generalizing the RE-backend 512 MiB CI trick into a knob.

Workers communicate over per-worker duplex pipes, so a kill can never
corrupt a shared queue, and the parent waits simultaneously on result
pipes and process sentinels -- a worker death wakes the loop at once.

Shard functions must be top-level callables with the signature
``fn(payload, attempt)`` returning a picklable result.  Results are
keyed by shard id, so callers merge them deterministically regardless
of scheduling (the same post-hoc sort the ``Pool`` path used).

The per-run failure/recovery tallies land in :class:`SupervisorStats`,
whose keys (``retries``, ``timeouts``, ``crashes``, ``errors``,
``workers.replaced``, ``shards.toxic``) are exactly the telemetry
counter suffixes published under the ``supervisor.`` namespace.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from multiprocessing.connection import wait as _conn_wait
from typing import Callable

from repro.errors import ReproError, SupervisorError
from repro.obs import flight as _flight

#: Shard failure kinds (the ``failures`` history entries).
CRASH, TIMEOUT, ERROR = "crash", "timeout", "error"

#: Environment variable carrying a chaos directive (``kind:shard:attempt``)
#: for the failure-mode tests and the CI ``chaos-smoke`` job.
CHAOS_ENV = "TANGLED_CHAOS"


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs for one supervised fan-out."""

    #: worker process count (the CLI ``--jobs``).
    jobs: int = 2
    #: wall-clock seconds a shard may run before its worker is killed
    #: and the shard retried; ``None`` disables the deadline.
    shard_timeout: float | None = None
    #: total executions a shard may consume (first try + retries)
    #: before it is quarantined as toxic.
    max_attempts: int = 3
    #: first retry delay in seconds; doubles per failed attempt.
    backoff_base: float = 0.05
    #: retry delay ceiling in seconds.
    backoff_cap: float = 2.0
    #: per-worker ``RLIMIT_AS`` ceiling in MiB (``None`` = unlimited).
    worker_mem_mib: int | None = None

    def __post_init__(self) -> None:
        if self.jobs <= 0:
            raise SupervisorError(f"jobs must be positive, got {self.jobs}")
        if self.max_attempts <= 0:
            raise SupervisorError(
                f"max_attempts must be positive, got {self.max_attempts}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise SupervisorError(
                f"shard_timeout must be positive, got {self.shard_timeout}"
            )
        if self.worker_mem_mib is not None and self.worker_mem_mib <= 0:
            raise SupervisorError(
                f"worker_mem_mib must be positive, got {self.worker_mem_mib}"
            )


@dataclass
class SupervisorStats:
    """Failure/recovery tallies for one :meth:`Supervisor.run`."""

    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    workers_replaced: int = 0
    toxic: int = 0

    def as_dict(self) -> dict:
        """Telemetry-taxonomy keyed rendering (``supervisor.<key>``)."""
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "errors": self.errors,
            "workers.replaced": self.workers_replaced,
            "shards.toxic": self.toxic,
        }


@dataclass
class ShardOutcome:
    """Terminal state of one shard: a result, or quarantine."""

    shard: int
    ok: bool
    result: object = None
    attempts: int = 1
    #: failure history: ``{"kind": crash|timeout|error, "error": str}``
    #: per failed attempt, oldest first.
    failures: list[dict] = field(default_factory=list)
    #: path of the blackbox spool file the (first failing) worker left
    #: behind; only populated for quarantined shards.
    blackbox: str | None = None

    @property
    def failure_kinds(self) -> list[str]:
        return [f["kind"] for f in self.failures]

    def quarantine_message(self) -> str:
        last = self.failures[-1]["error"] if self.failures else "unknown"
        return (
            f"shard quarantined after {self.attempts} failed attempt(s): "
            f"{last}"
        )


class SupervisorInterrupted(ReproError):
    """Raised when the fan-out is interrupted (Ctrl-C) mid-flight.

    Carries every shard outcome that completed before the interrupt so
    the caller can flush a partial report; all workers have already
    been terminated when this propagates.
    """

    def __init__(self, outcomes: dict[int, ShardOutcome],
                 stats: SupervisorStats, total: int):
        self.outcomes = outcomes
        self.stats = stats
        self.total = total
        super().__init__(
            f"fan-out interrupted after {len(outcomes)}/{total} shards"
        )


def chaos_hook(shard: int, attempt: int) -> None:
    """Deterministic failure injection for chaos tests -- workers only.

    Honors ``TANGLED_CHAOS=kind:shard:last_attempt`` where *kind* is
    ``crash`` (``os._exit(1)``), ``hang`` (sleep far past any shard
    timeout) or ``bloat`` (allocate ~1 GiB, tripping an ``RLIMIT_AS``
    ceiling).  The directive fires when executing *shard* at any attempt
    ``<= last_attempt``, and never in the parent process -- the serial
    path and the golden run are exempt by construction.
    """
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return
    if multiprocessing.parent_process() is None:
        return
    try:
        kind, target, last_attempt = spec.split(":")
        target_i, last_i = int(target), int(last_attempt)
    except ValueError:
        return
    if shard != target_i or attempt > last_i:
        return
    if kind == "crash":
        # A crash is the one failure the deadline timer cannot cover:
        # spill the flight ring before the process evaporates.
        _flight.spool_spill(shard, "chaos-crash")
        os._exit(1)
    elif kind == "hang":
        time.sleep(600.0)
    elif kind == "bloat":
        hog = bytearray(1 << 30)
        hog[::4096] = b"x" * len(hog[::4096])


def _apply_memory_ceiling(mem_mib: int) -> None:
    """Best-effort ``RLIMIT_AS`` ceiling (no-op where unsupported)."""
    try:
        import resource
    except ImportError:  # non-POSIX
        return
    limit = mem_mib << 20
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError):
        pass


def _worker_main(conn, fn, initializer, mem_mib,
                 shard_timeout=None) -> None:
    """One supervised worker: receive tasks, send results, never raise.

    SIGINT is ignored (the parent owns interrupt handling and kills
    workers explicitly).  A ``MemoryError`` is reported and then the
    worker exits -- its heap is untrustworthy near an ``RLIMIT_AS``
    ceiling, so the parent replaces it with a fresh process.

    The parent enforces ``shard_timeout`` with SIGKILL, which a worker
    can never catch -- so before each task the worker arms a SIGALRM
    self-dump (:func:`repro.obs.flight.arm_deadline_dump`) that spills
    its flight-recorder ring to the blackbox spool ahead of the
    deadline; in-worker errors spill on the way out too.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    if mem_mib is not None:
        _apply_memory_ceiling(mem_mib)
    if initializer is not None:
        initializer()
    # The forked ring holds the *parent's* history (golden run, earlier
    # commands); a worker's post-mortem should contain only its own work.
    _flight.RECORDER.reset()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        shard, attempt, payload = message
        poisoned = False
        disarm = _flight.arm_deadline_dump(shard, shard_timeout)
        try:
            result = fn(payload, attempt)
        except MemoryError:
            reply = (shard, ERROR, "MemoryError: worker memory ceiling "
                                   "exceeded")
            poisoned = True
            _flight.spool_spill(shard, "worker-error")
        except BaseException as exc:  # report, never crash the loop
            reply = (shard, ERROR, f"{type(exc).__name__}: {exc}")
            _flight.spool_spill(shard, "worker-error")
        else:
            reply = (shard, "ok", result)
        finally:
            disarm()
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        if poisoned:
            break
    conn.close()


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = ("process", "conn", "shard", "deadline", "ident")

    def __init__(self, process, conn, ident: int):
        self.process = process
        self.conn = conn
        self.ident = ident
        self.shard: int | None = None
        self.deadline: float | None = None


class Supervisor:
    """Run shards through a self-healing worker pool.

    ``fn(payload, attempt)`` executes one shard in a worker process;
    ``initializer()`` runs once per worker (telemetry detach, store
    resets).  ``on_event(kind)`` fires in the parent on every recovery
    action with a :meth:`SupervisorStats.as_dict` key (``"retries"``,
    ``"timeouts"``, ``"crashes"``, ``"errors"``, ``"workers.replaced"``,
    ``"shards.toxic"``) -- the progress layer turns these into status-
    line annotations and gauges.
    """

    #: Parent-loop wakeup ceiling (deadline checks happen at least this
    #: often even when no results arrive).
    _POLL_SECONDS = 0.25

    def __init__(self, fn: Callable, config: SupervisorConfig,
                 initializer: Callable | None = None,
                 on_event: Callable[[str], None] | None = None):
        self.fn = fn
        self.config = config
        self.initializer = initializer
        self.on_event = on_event
        self.stats = SupervisorStats()
        self._workers: list[_Worker] = []
        self._spawned = 0

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = multiprocessing.Pipe()
        self._spawned += 1
        process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, self.fn, self.initializer,
                  self.config.worker_mem_mib, self.config.shard_timeout),
            name=f"TangledWorker-{self._spawned}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn, self._spawned)
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker, kill: bool = False) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _shutdown(self, force: bool = False) -> None:
        for worker in list(self._workers):
            if not force and worker.process.is_alive():
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in list(self._workers):
            worker.process.join(timeout=0.2 if force else 2.0)
            self._retire(worker, kill=True)

    def _emit(self, kind: str) -> None:
        if _flight.RECORDER.enabled:
            _flight.RECORDER.mark(f"supervisor.{kind}")
        if self.on_event is not None:
            self.on_event(kind)

    # -- the supervise loop --------------------------------------------------

    def run(self, payloads, on_result=None) -> dict[int, ShardOutcome]:
        """Execute every shard; returns ``{shard: ShardOutcome}``.

        ``payloads`` is a mapping ``{shard_id: payload}`` (a sequence is
        treated as ``enumerate``); shards are dispatched in its order,
        retries behind them.  ``on_result(outcome)`` fires in the
        parent the moment a shard reaches a terminal state (success or
        quarantine) -- the journaling / progress hook.  Raises
        :class:`SupervisorInterrupted` on Ctrl-C with the partial
        outcome map attached; workers are terminated first.
        """
        if isinstance(payloads, dict):
            items = dict(payloads)
        else:
            items = dict(enumerate(payloads))
        total = len(items)
        outcomes: dict[int, ShardOutcome] = {}
        if total == 0:
            return outcomes
        if _flight.RECORDER.enabled:
            _flight.RECORDER.mark(
                "supervisor.start",
                f"{total} shard(s), jobs={self.config.jobs}",
            )
        attempts = {shard: 0 for shard in items}
        failures: dict[int, list[dict]] = {shard: [] for shard in items}
        queue: deque[int] = deque(items)
        delayed: list[tuple[float, int]] = []
        # A worker dying faster than work completes (e.g. an initializer
        # that cannot allocate under the memory ceiling) must not become
        # a fork bomb: cap total spawns at the worst legitimate case.
        spawn_cap = self.config.jobs + total * self.config.max_attempts + 8

        def settle(shard: int, outcome: ShardOutcome) -> None:
            if outcome.ok:
                # An earlier failing attempt (or a deadline dump that
                # beat a just-in-time finish) may have spooled a
                # blackbox; the shard recovered, so drop it.
                _flight.spool_discard(shard)
            else:
                outcome.blackbox = _flight.spool_collect(shard)
            outcomes[shard] = outcome
            if on_result is not None:
                on_result(outcome)

        def fail(shard: int, kind: str, message: str) -> None:
            failures[shard].append({"kind": kind, "error": message})
            if kind == TIMEOUT:
                self.stats.timeouts += 1
                self._emit("timeouts")
            elif kind == CRASH:
                self.stats.crashes += 1
                self._emit("crashes")
            else:
                self.stats.errors += 1
                self._emit("errors")
            if attempts[shard] >= self.config.max_attempts:
                self.stats.toxic += 1
                self._emit("shards.toxic")
                settle(shard, ShardOutcome(
                    shard, ok=False, attempts=attempts[shard],
                    failures=failures[shard],
                ))
                return
            self.stats.retries += 1
            self._emit("retries")
            delay = min(
                self.config.backoff_cap,
                self.config.backoff_base * (2 ** (attempts[shard] - 1)),
            )
            heappush(delayed, (time.monotonic() + delay, shard))

        def replace_worker(worker: _Worker, kill: bool) -> None:
            self._retire(worker, kill=kill)
            self.stats.workers_replaced += 1
            self._emit("workers.replaced")

        try:
            while len(outcomes) < total:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    queue.append(heappop(delayed)[1])
                # Keep the pool sized to the remaining work.
                remaining = total - len(outcomes)
                while len(self._workers) < min(self.config.jobs, remaining):
                    if self._spawned >= spawn_cap:
                        raise SupervisorError(
                            f"workers are dying faster than shards complete "
                            f"({self._spawned} spawned for {total} shards); "
                            f"giving up"
                        )
                    self._spawn()
                # Dispatch ready shards onto idle workers.
                for worker in self._workers:
                    if worker.shard is not None or not queue:
                        continue
                    shard = queue.popleft()
                    attempts[shard] += 1
                    try:
                        worker.conn.send(
                            (shard, attempts[shard] - 1, items[shard])
                        )
                    except (BrokenPipeError, OSError):
                        # Dead before dispatch: not the shard's fault.
                        attempts[shard] -= 1
                        queue.appendleft(shard)
                        replace_worker(worker, kill=True)
                        break
                    worker.shard = shard
                    worker.deadline = (
                        now + self.config.shard_timeout
                        if self.config.shard_timeout is not None else None
                    )
                # Wait for a result, a worker death, or the next
                # deadline/backoff expiry -- whichever is soonest.
                wait_until = now + self._POLL_SECONDS
                for worker in self._workers:
                    if worker.deadline is not None:
                        wait_until = min(wait_until, worker.deadline)
                if delayed:
                    wait_until = min(wait_until, delayed[0][0])
                handles = [w.conn for w in self._workers]
                handles += [w.process.sentinel for w in self._workers]
                ready = _conn_wait(handles,
                                   timeout=max(0.0, wait_until - now))
                # Results first, so a shard finishing right at its
                # deadline is never misclassified as a timeout.
                for worker in list(self._workers):
                    if worker.conn not in ready:
                        continue
                    try:
                        shard, status, payload = worker.conn.recv()
                    except (EOFError, OSError):
                        continue  # death; the sentinel pass handles it
                    worker.shard = None
                    worker.deadline = None
                    if shard in outcomes:
                        continue  # late duplicate of a retried shard
                    if status == "ok":
                        settle(shard, ShardOutcome(
                            shard, ok=True, result=payload,
                            attempts=attempts[shard],
                            failures=failures[shard],
                        ))
                    else:
                        fail(shard, ERROR, payload)
                now = time.monotonic()
                for worker in list(self._workers):
                    if not worker.process.is_alive():
                        held = worker.shard
                        replace_worker(worker, kill=False)
                        if held is not None and held not in outcomes:
                            code = worker.process.exitcode
                            fail(held, CRASH,
                                 f"worker exited with code {code} "
                                 f"mid-shard")
                    elif (worker.deadline is not None
                          and now > worker.deadline):
                        held = worker.shard
                        replace_worker(worker, kill=True)
                        if held is not None and held not in outcomes:
                            fail(held, TIMEOUT,
                                 f"exceeded shard timeout of "
                                 f"{self.config.shard_timeout:g}s")
        except KeyboardInterrupt:
            self._shutdown(force=True)
            raise SupervisorInterrupted(outcomes, self.stats, total) from None
        finally:
            self._shutdown()
        return outcomes


def map_supervised(fn, payloads, config: SupervisorConfig,
                   initializer=None, on_result=None, on_event=None,
                   ) -> tuple[dict[int, ShardOutcome], SupervisorStats]:
    """One-shot convenience wrapper around :class:`Supervisor`."""
    supervisor = Supervisor(fn, config, initializer=initializer,
                            on_event=on_event)
    outcomes = supervisor.run(payloads, on_result=on_result)
    return outcomes, supervisor.stats
