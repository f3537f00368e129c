"""The persistent worker pool that shards sweeps and experiment batches.

:class:`FabricPool` is the process fan-out layer of the reproduction:
it shards Algorithm 1 sweeps (`build_many` / `characterize_many`) and
runs experiment batches.  A sweep task carries its machine serialized
(:func:`repro.fabric.arena.machine_ref`); each worker rebuilds a
machine once per fingerprint and serves later tasks from its cache.

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
semantics.  Workers exit with their parent, however it dies.

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

from repro.errors import FabricError
from repro.fabric import arena as _arena
from repro.fabric import telemetry as _telemetry
from repro.fabric.shard import merge_in_order, plan_shards
from repro.obs import recorder as _obs
from repro.rng import DEFAULT_SEED, RngRegistry

__all__ = ["FabricPool"]

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
    """Reset state a forked worker inherited from its parent.

    Forked workers carry copies of the parent's solver sessions, machine
    cache and obs recorder; each worker starts from empty ones instead.

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
    from repro.solver.session import _SESSIONS

    _SESSIONS.clear()
    _arena._WORKER_MACHINES.clear()
    _obs.uninstall()


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
            _arena.resolve_machine(task["machine_ref"])
            if task.get("machine_ref") else None
        )
        registry = RngRegistry(task["seed"])
        result = _run_kind(task["kind"], machine, registry, task["payload"])
        draws = registry.draw_counts
    finally:
        captured = _telemetry.end_capture(recorder, baseline)
    return {"result": result, "draws": draws, "telemetry": captured}


class FabricPool:
    """A persistent process pool that shards sweeps and experiment batches.

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

    The pool is lazy (workers start on first dispatch), reusable across
    machines (tasks carry their machine), and must be closed —
    ``close()`` or the context-manager form — to shut workers down.
    """

    def __init__(self, jobs: int = 2, seed: int = DEFAULT_SEED,
                 retries: int = 2) -> None:
        if jobs < 1:
            raise FabricError(f"need >= 1 worker, got {jobs}")
        if retries < 0:
            raise FabricError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.seed = int(seed)
        self.retries = retries
        self._executor = None
        self.dispatched = 0
        self.completed = 0
        self.retried = 0
        self.closed = False

    # --- lifecycle --------------------------------------------------------
    def _ensure_executor(self):
        if self.closed:
            raise FabricError("fabric pool is closed")
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_init,
            )
        return self._executor

    def _rebuild_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut the workers down."""
        if self.closed:
            return
        self.closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "FabricPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # --- accounting -------------------------------------------------------
    def stats(self) -> dict:
        """JSON-able pool accounting (dispatch counters)."""
        return {
            "jobs": self.jobs,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "retried": self.retried,
        }

    # --- dispatch core ----------------------------------------------------
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
        ``targets`` is checked like the serial call's
        (:func:`~repro.core.iomodel.sweep_targets`) before any task is
        dispatched.
        """
        from repro.core.iomodel import sweep_targets

        targets = sweep_targets(machine, targets)
        seed = registry.seed if registry is not None else self.seed
        ref = _arena.machine_ref(machine)
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
        completed nodes, exactly like :meth:`build_many`, and ``nodes``
        is checked before any dispatch the same way.
        """
        from repro.core.iomodel import sweep_targets

        nodes = sweep_targets(machine, nodes)
        seed = registry.seed if registry is not None else self.seed
        ref = _arena.machine_ref(machine)
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
