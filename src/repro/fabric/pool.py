"""The persistent worker pool over shared-memory machine arenas.

:class:`FabricPool` is the process fan-out layer of the reproduction:
it shards characterization sweeps (`build_many` / `characterize_many` /
`bulk_copy_gbps_many`) and runs experiment batches — all against
machines that workers **map** from a shared-memory arena instead of
unpickling per task.

Determinism contract (the one the smoke script gates): a sharded run is
bit-identical to the serial run.  Three properties make that true:

* every worker draws from a registry built with the **same root seed**
  as the parent's — named streams are derived position-independently
  from ``(seed, name)`` and restart on every request, so the process
  that draws a stream cannot change its values (``RngRegistry.child``
  would *re-seed* the namespace and is exactly what sharding must not
  do);
* shards are contiguous slices merged in shard order
  (:mod:`repro.fabric.shard`), so merged dicts keep serial insertion
  order and merged ledgers equal the serial ledger;
* telemetry is capture-and-graft (:mod:`repro.fabric.telemetry`), so
  recording changes what is observed, never what is computed — in any
  process.

Failure model: a SIGKILLed worker breaks the executor
(``BrokenProcessPool``); the pool rebuilds it and re-dispatches only the
shards whose results were lost, up to ``retries`` times.  Experiment
batches opt out of retry (``run_experiments``) and degrade to
structured "crashed" rows instead, preserving the CLI's historical
semantics.  Workers never own arena segments, so no crash can leak
``/dev/shm``; a SIGKILLed *parent* can, which is why pool startup reaps
dead-owner orphans (:func:`repro.fabric.arena.reap_orphans`).

Checkpoint/resume: the sweep methods accept a
:class:`~repro.journal.RunJournal`.  Journaled dispatch is
unit-granular (one target / one experiment per task, independent of
``jobs``); each completed unit's envelope — result, RNG draw ledger,
captured telemetry — is appended to the journal the moment it lands,
and already-journaled units are replayed instead of re-run.  Because
merge order is unit order, never completion order, a resumed run's
merged results, absorbed ledgers, and grafted telemetry are identical
to an uninterrupted run's.
"""

from __future__ import annotations

import os
import signal
import time
from collections import OrderedDict

from repro.errors import FabricError
from repro.fabric import arena as _arena
from repro.fabric import telemetry as _telemetry
from repro.fabric.shard import merge_in_order, plan_shards
from repro.obs import recorder as _obs
from repro.rng import DEFAULT_SEED, RngRegistry
from repro.solver.capacity import machine_fingerprint

__all__ = ["FabricPool"]

#: Worker-side LRU bound on attached machines/arenas.
_WORKER_MACHINE_LIMIT = 16

#: Worker-side machine cache, living in each worker process.
_WORKER_MACHINES: "OrderedDict[str, tuple]" = OrderedDict()

#: Whether this worker already served its injected stall (one per
#: process; armed by ``repro.faults.execution.WorkerStall``).
_WORKER_STALLED = False


def _exit_with_parent(sentinel: int) -> None:
    """Block until the parent process is gone, then end this worker.

    ``sentinel`` is the parent's :attr:`multiprocessing.Process.sentinel`:
    it turns ready when the parent dies.  A SIGKILLed parent never shuts
    its executor down, so its idle workers would otherwise wait on the
    call queue forever.
    """
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _worker_init() -> None:
    """Reset fabric state a forked worker inherited from its parent.

    Forked workers carry copies of the parent's arena registry and
    session cache.  Those handles must be neutralised — the parent owns
    every published segment, and a worker's exit sweep must never close
    (let alone unlink) them through an inherited handle.

    Each worker also watches its parent from a daemon thread and exits
    when the parent dies, however it died.
    """
    import multiprocessing
    import threading

    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent, args=(parent.sentinel,), daemon=True,
            name="fabric-parent-watch",
        ).start()
    for inherited in _arena._ARENAS.values():
        inherited.owner = False
        inherited.closed = True
    _arena._ARENAS.clear()
    from repro.solver.session import _SESSIONS

    for session in _SESSIONS.values():
        session._arena = None
    _SESSIONS.clear()
    _WORKER_MACHINES.clear()
    _obs.uninstall()


def _resolve_machine(ref: dict):
    """The worker's machine for one task ref: arena-mapped, else rebuilt.

    Cached per fingerprint; an arena-backed machine's solver session is
    attached to the arena so capacities come from the mapped bytes.
    """
    fingerprint = ref["fingerprint"]
    entry = _WORKER_MACHINES.get(fingerprint)
    if entry is not None:
        _WORKER_MACHINES.move_to_end(fingerprint)
        return entry[0]
    arena = _arena.attach(ref["segment"]) if ref.get("segment") else None
    if arena is not None:
        arena.acquire()
        machine = arena.machine()
        from repro.solver.session import get_session

        get_session(machine).attach_arena(arena)
    else:
        from repro.topology.serialize import machine_from_dict

        machine = machine_from_dict(ref["machine"])
        try:
            machine._solver_fingerprint = fingerprint
        except AttributeError:  # pragma: no cover - exotic subclasses
            pass
    _WORKER_MACHINES[fingerprint] = (machine, arena)
    while len(_WORKER_MACHINES) > _WORKER_MACHINE_LIMIT:
        _fp, (_m, old_arena) = _WORKER_MACHINES.popitem(last=False)
        if old_arena is not None:
            old_arena.release()
    return machine


def _run_kind(kind: str, machine, registry, payload: dict):
    """Dispatch one task body inside the worker."""
    if kind == "build_many":
        from repro.core.iomodel import IOModelBuilder

        builder = IOModelBuilder(machine, registry=registry,
                                 **payload["builder"])
        return builder.build_many(tuple(payload["targets"]), payload["mode"])
    if kind == "characterize_many":
        from repro.core.characterize import HostCharacterizer

        characterizer = HostCharacterizer(machine, registry=registry,
                                          **payload["builder"])
        return characterizer.characterize_many(tuple(payload["targets"]))
    if kind == "bulk_copy":
        from repro.bench.engines import bulk_copy_gbps_many

        return bulk_copy_gbps_many(
            machine, [tuple(p) for p in payload["pairs"]], payload["threads"]
        )
    if kind == "experiment":
        import time

        from repro.experiments import run_experiment

        exp_id = payload["exp_id"]
        if os.environ.get("REPRO_CHAOS_KILL_EXPERIMENT") == exp_id:
            # Test hook: die exactly like a worker hit by the OOM
            # killer, so crash handling can be exercised for real.
            os.kill(os.getpid(), signal.SIGKILL)
        start = time.perf_counter()
        result = run_experiment(exp_id, quick=payload["quick"])
        wall_s = time.perf_counter() - start
        failed_lines = [c.render() for c in result.failed_checks()]
        return (exp_id, result.passed, result.title, result.render(),
                failed_lines, wall_s)
    if kind == "ping":
        return machine.name if machine is not None else None
    raise FabricError(f"unknown fabric task kind {kind!r}")


def _worker_run(task: dict) -> dict:
    """Execute one task envelope in a worker process.

    Returns plain data only: the task result, the worker registry's
    draw ledger, and (when the parent was recording) the captured
    telemetry payload.
    """
    global _WORKER_STALLED
    if not _WORKER_STALLED:
        _WORKER_STALLED = True
        # "REPRO_FABRIC_STALL" == repro.faults.execution.STALL_ENV, kept
        # as a literal so workers never import the fault taxonomy.
        stall = os.environ.get("REPRO_FABRIC_STALL")
        if stall:
            try:
                time.sleep(min(60.0, float(stall)))
            except ValueError:
                pass
    marker = os.environ.get("REPRO_FABRIC_KILL_ONCE")
    if marker:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass  # a previous incarnation already died here
        except OSError:
            # Uncreatable marker: nowhere to record the death, so every
            # incarnation dies — the "pool never recovers" chaos mode.
            os.kill(os.getpid(), signal.SIGKILL)
        else:
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    recorder = _telemetry.begin_capture(task["telemetry"])
    baseline = None
    if recorder is not None:
        from repro.obs.stats import solver_totals

        baseline = solver_totals()
    try:
        machine = (
            _resolve_machine(task["machine_ref"])
            if task.get("machine_ref") else None
        )
        registry = RngRegistry(task["seed"])
        result = _run_kind(task["kind"], machine, registry, task["payload"])
        draws = registry.draw_counts
    finally:
        captured = _telemetry.end_capture(recorder, baseline)
    return {"result": result, "draws": draws, "telemetry": captured}


class FabricPool:
    """A persistent process pool dispatching over shared-memory arenas.

    Parameters
    ----------
    jobs:
        Worker process count (also the default shard count).
    seed:
        Root seed workers derive their registries from when the caller
        passes no registry of its own.
    retries:
        How many times a broken pool is rebuilt and lost shards
        re-dispatched before giving up.
    mp_context:
        Optional :mod:`multiprocessing` context (tests pin ``fork``).

    The pool is lazy (workers start on first dispatch), reusable across
    machines (tasks carry their arena ref), and must be closed —
    ``close()`` or the context-manager form — to shut workers down and
    release published arenas promptly.  Segments can never outlive the
    process even without it: the arena layer's atexit sweep owns that.
    """

    def __init__(self, jobs: int = 2, seed: int = DEFAULT_SEED,
                 retries: int = 2, mp_context=None) -> None:
        if jobs < 1:
            raise FabricError(f"need >= 1 worker, got {jobs}")
        if retries < 0:
            raise FabricError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.seed = int(seed)
        self.retries = retries
        self._mp_context = mp_context
        self._executor = None
        self._arenas: "OrderedDict[str, _arena.MachineArena]" = OrderedDict()
        self.dispatched = 0
        self.completed = 0
        self.retried = 0
        self.closed = False
        # A SIGKILLed predecessor never ran its atexit sweep; clear its
        # dead-owner segments before publishing under the same names.
        try:
            _arena.reap_orphans()
        except Exception:  # pragma: no cover - never fail pool startup
            pass

    # --- lifecycle --------------------------------------------------------
    def _ensure_executor(self):
        if self.closed:
            raise FabricError("fabric pool is closed")
        if self._executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = self._mp_context or multiprocessing.get_context()
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=context,
                initializer=_worker_init,
            )
        return self._executor

    def _rebuild_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut the workers down and release every published arena."""
        if self.closed:
            return
        self.closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        for arena in self._arenas.values():
            arena.release()
        self._arenas.clear()

    def __enter__(self) -> "FabricPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # --- accounting -------------------------------------------------------
    def stats(self) -> dict:
        """JSON-able pool accounting (dispatch counters, live arenas)."""
        return {
            "jobs": self.jobs,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "retried": self.retried,
            "arenas": len(self._arenas),
        }

    # --- dispatch core ----------------------------------------------------
    def _machine_ref(self, machine) -> dict:
        """The task-side handle for ``machine``: arena name, or its
        serialized form when no arena can be published."""
        if getattr(machine.routing, "_overrides", None):
            raise FabricError(
                f"machine {machine.name!r} has routing overrides; the "
                f"fabric cannot reproduce them in workers — run serially"
            )
        fingerprint = machine_fingerprint(machine)
        arena = self._arenas.get(fingerprint)
        if arena is not None and not arena.closed:
            self._arenas.move_to_end(fingerprint)
            return {"fingerprint": fingerprint, "segment": arena.name}
        try:
            arena = _arena.get_arena(machine)
        except FabricError:
            arena = None  # no usable shared memory: ship the description
        if arena is None:
            from repro.topology.serialize import machine_to_dict

            return {
                "fingerprint": fingerprint,
                "segment": None,
                "machine": machine_to_dict(machine),
            }
        self._arenas[fingerprint] = arena
        while len(self._arenas) > _WORKER_MACHINE_LIMIT:
            _fp, old = self._arenas.popitem(last=False)
            old.release()
        return {"fingerprint": fingerprint, "segment": arena.name}

    def _task(self, kind: str, machine_ref, seed: int, payload: dict) -> dict:
        return {
            "kind": kind,
            "machine_ref": machine_ref,
            "seed": seed,
            "telemetry": _obs.enabled(),
            "payload": payload,
        }

    def _run_tasks(self, tasks: "list[dict]", on_result=None) -> "list[dict]":
        """Dispatch tasks, retrying shards lost to a broken pool.

        ``on_result(index, envelope)`` fires exactly once per task, in
        submission order, the moment its result is in hand — the
        journal's append hook, so a completed unit is durable even if
        the parent dies before the batch finishes.
        """
        from concurrent.futures.process import BrokenProcessPool

        results: "list[dict | None]" = [None] * len(tasks)
        pending = list(range(len(tasks)))
        attempt = 0
        while pending:
            executor = self._ensure_executor()
            futures = [(i, executor.submit(_worker_run, tasks[i]))
                       for i in pending]
            self.dispatched += len(futures)
            lost: list[int] = []
            for i, future in futures:
                try:
                    results[i] = future.result()
                    self.completed += 1
                    if on_result is not None:
                        on_result(i, results[i])
                except BrokenProcessPool:
                    lost.append(i)
            if lost:
                self._rebuild_executor()
                attempt += 1
                if attempt > self.retries:
                    raise FabricError(
                        f"worker pool broke {attempt} times; "
                        f"{len(lost)} shard(s) unrecovered"
                    )
                self.retried += len(lost)
            pending = lost
        return results  # type: ignore[return-value]

    def _run_journaled(self, journal, keys: "list[tuple]",
                       make_task) -> "list[dict]":
        """Unit-granular dispatch against a :class:`RunJournal`.

        ``keys[i]`` identifies unit ``i``; ``make_task(i)`` builds its
        task envelope.  Journaled units are replayed from their stored
        envelopes; the rest run, each appended — result, draw ledger,
        telemetry — as soon as it completes.  The returned envelope
        list is in unit order either way.
        """
        envelopes: "list[dict | None]" = [None] * len(keys)
        missing: "list[int]" = []
        for i, key in enumerate(keys):
            record = journal.get(key)
            if record is not None:
                envelopes[i] = {
                    "result": record["result"],
                    "draws": record["draws"],
                    "telemetry": record["telemetry"],
                }
            else:
                missing.append(i)

        def persist(j: int, env: dict) -> None:
            journal.append(
                keys[missing[j]],
                result=env["result"],
                draws=env["draws"],
                telemetry=env["telemetry"],
            )

        fresh = self._run_tasks(
            [make_task(i) for i in missing], on_result=persist
        )
        for j, env in zip(missing, fresh):
            envelopes[j] = env
        return envelopes  # type: ignore[return-value]

    def _merge(self, envelopes: "list[dict]", registry, label: str) -> None:
        """Fold draw ledgers and grafted telemetry back, in task order."""
        recording = _obs.enabled()
        for idx, env in enumerate(envelopes):
            if registry is not None and env["draws"]:
                registry.absorb(env["draws"])
            if recording and env.get("telemetry") is not None:
                _telemetry.graft(
                    _obs.get_recorder(), env["telemetry"],
                    label=label, shard=idx,
                )

    # --- sharded sweeps ---------------------------------------------------
    def build_many(self, machine, targets, mode: str,
                   registry: "RngRegistry | None" = None,
                   journal=None, **builder_kwargs) -> dict:
        """Sharded :meth:`~repro.core.iomodel.IOModelBuilder.build_many`.

        Bit-identical to the serial call with the same registry seed;
        the caller's ``registry`` (when given) supplies the seed and
        absorbs the merged draw ledger.  With ``journal``, dispatch is
        one target per task (so resume granularity is independent of
        ``jobs``) and completed targets are replayed, not re-run.
        """
        targets = tuple(targets)
        seed = registry.seed if registry is not None else self.seed
        ref = self._machine_ref(machine)
        if journal is not None:
            envelopes = self._run_journaled(
                journal,
                [("build_many", mode, int(t)) for t in targets],
                lambda i: self._task("build_many", ref, seed, {
                    "targets": (targets[i],),
                    "mode": mode,
                    "builder": dict(builder_kwargs),
                }),
            )
        else:
            tasks = [
                self._task("build_many", ref, seed, {
                    "targets": targets[start:stop],
                    "mode": mode,
                    "builder": dict(builder_kwargs),
                })
                for start, stop in plan_shards(len(targets), self.jobs)
            ]
            envelopes = self._run_tasks(tasks)
        self._merge(envelopes, registry, "fabric.build_many")
        return merge_in_order([env["result"] for env in envelopes])

    def characterize_many(self, machine, nodes,
                          registry: "RngRegistry | None" = None,
                          journal=None, **builder_kwargs) -> dict:
        """Sharded :meth:`~repro.core.characterize.HostCharacterizer.characterize_many`.

        With ``journal``, one node per task and journal-replay of
        completed nodes, exactly like :meth:`build_many`.
        """
        nodes = tuple(nodes)
        seed = registry.seed if registry is not None else self.seed
        ref = self._machine_ref(machine)
        if journal is not None:
            envelopes = self._run_journaled(
                journal,
                [("characterize_many", int(n)) for n in nodes],
                lambda i: self._task("characterize_many", ref, seed, {
                    "targets": (nodes[i],),
                    "builder": dict(builder_kwargs),
                }),
            )
        else:
            tasks = [
                self._task("characterize_many", ref, seed, {
                    "targets": nodes[start:stop],
                    "builder": dict(builder_kwargs),
                })
                for start, stop in plan_shards(len(nodes), self.jobs)
            ]
            envelopes = self._run_tasks(tasks)
        self._merge(envelopes, registry, "fabric.characterize_many")
        return merge_in_order([env["result"] for env in envelopes])

    def bulk_copy_gbps_many(self, machine, pairs, threads: int) -> "list[float]":
        """Sharded :func:`~repro.bench.engines.bulk_copy_gbps_many`."""
        pairs = [tuple(p) for p in pairs]
        ref = self._machine_ref(machine)
        tasks = [
            self._task("bulk_copy", ref, self.seed, {
                "pairs": pairs[start:stop],
                "threads": threads,
            })
            for start, stop in plan_shards(len(pairs), self.jobs)
        ]
        envelopes = self._run_tasks(tasks)
        self._merge(envelopes, None, "fabric.bulk_copy")
        out: "list[float]" = []
        for env in envelopes:
            out.extend(env["result"])
        return out

    # --- experiments ------------------------------------------------------
    def run_experiments(self, exp_ids, quick: bool = False,
                        journal=None) -> "list[tuple]":
        """One experiment per worker task, merged in registry order.

        No transparent retry here: a dead worker degrades to structured
        "crashed" rows (every experiment still reported exactly once)
        and the executor is rebuilt for later dispatches, matching the
        CLI's long-standing crash semantics.  With ``journal``, passed
        experiments are replayed from their records; crashed rows are
        deliberately never journaled, so a resume retries them.
        """
        executor = self._ensure_executor()
        exp_ids = list(exp_ids)
        futures: "dict[str, object]" = {}
        for exp_id in exp_ids:
            if journal is not None and ("experiment", exp_id) in journal:
                continue
            futures[exp_id] = executor.submit(_worker_run, self._task(
                "experiment", None, self.seed,
                {"exp_id": exp_id, "quick": quick},
            ))
        self.dispatched += len(futures)
        outcomes: "list[tuple]" = []
        crashed = False
        for exp_id in exp_ids:
            if exp_id not in futures:
                record = journal.get(("experiment", exp_id))
                envelope = {
                    "result": record["result"],
                    "draws": record["draws"],
                    "telemetry": record["telemetry"],
                }
            else:
                try:
                    envelope = futures[exp_id].result()
                except Exception as exc:  # worker died or pool broke
                    crashed = True
                    reason = (
                        f'status="crashed": experiment {exp_id!r} worker '
                        f"died before returning a result "
                        f"({type(exc).__name__})"
                    )
                    outcomes.append((exp_id, None, "(worker crashed)",
                                     reason, [reason], 0.0))
                    continue
                self.completed += 1
                if journal is not None:
                    journal.append(
                        ("experiment", exp_id),
                        result=envelope["result"],
                        draws=envelope["draws"],
                        telemetry=envelope["telemetry"],
                    )
            self._merge([envelope], None, "fabric.experiment")
            outcomes.append(tuple(envelope["result"]))
        if crashed:
            self._rebuild_executor()
        return outcomes
