"""The benchmark's three workloads: ``paper``, ``sweep`` and ``advisory``.

Each workload turns the benchmark seed into inputs, sets up what a user
would set up (imports, inputs, a worker pool, one warm-up pass), then
runs timed passes.  One pass is one end-to-end unit of work; one
operation is one artifact, one class model, or one request.  Every
operation is checked:

* ``paper``: an artifact's bytes must equal its EXPERIMENTS.md section
  at the library-default seed, or the warm-up pass's bytes at any other
  seed;
* ``sweep``: a pass must not raise, and the first timed host is
  re-characterized serially in-process after the timed loop -- every
  model must equal its fabric twin byte for byte;
* ``advisory``: every request is answered by exactly one line carrying
  its id, never with ``internal_error``, and with the same bytes as in
  the warm-up pass (typed errors for the hostile lines are correct).
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

__all__ = [
    "PassResult",
    "Paper",
    "Sweep",
    "Advisory",
    "WORKLOADS",
    "artifact",
    "render_section",
    "host_seeds",
    "expected_sections",
    "advisory_traffic",
    "interleave_traffic",
    "response_ok",
    "calibration_loop",
    "Calibrator",
    "speed_factor",
    "cpu_times",
    "jiffies",
    "CALIBRATION_REF_S",
]

_pc = time.perf_counter
_tt = time.thread_time

#: CPU seconds one :func:`calibration_loop` takes on the reference
#: machine.  A run's pass times are scaled by ``CALIBRATION_REF_S`` over
#: the median of the loops run between its passes (:func:`speed_factor`),
#: so a run on a VM slowed by its neighbours (a busy hyperthread sibling,
#: frequency) reads like one on a quiet VM.
CALIBRATION_REF_S = 0.004

_CALIBRATION_DOC = {f"k{i}": [i, str(i), {"x": i * 0.5}] for i in range(200)}


def speed_factor(loops: "list[float]") -> float:
    """``CALIBRATION_REF_S`` over the median calibration loop time."""
    return CALIBRATION_REF_S / statistics.median(loops)


def calibration_loop() -> float:
    """CPU seconds of one fixed mix of dict, sort, JSON and numpy work.

    The loop touches no ``repro`` code, so a change to the program
    cannot change its cost; garbage collection is paused so the
    program's heap does not either.
    """
    import gc

    import numpy as np

    gc.disable()
    try:
        start = _tt()
        text = json.dumps(_CALIBRATION_DOC, sort_keys=True)
        json.loads(text)
        table = {}
        for key, value in sorted((i * 7919 % 1000, str(i)) for i in range(3000)):
            table[value] = key
        arr = np.arange(64.0)
        for _ in range(200):
            arr = np.sqrt(arr * 1.0001 + 1.0)
        return _tt() - start
    finally:
        gc.enable()


class Calibrator:
    """Runs calibration loops on request in a separate, repro-free process.

    The loops share the CPU with the program but not its heap.  Run in
    the measuring process itself, they took 2.6 % (paper) and 5 %
    (advisory) longer once the workload was set up than in a bare
    process at the same moment, so a program change that shrank its
    heap would have sped them up and cancelled part of its own gain.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def run(self, count: int) -> list[float]:
        """CPU seconds of ``count`` loops, run while the caller waits."""
        self.proc.stdin.write(f"{count}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat``, in jiffies."""
    with open("/proc/stat", encoding="ascii") as stat:
        return [int(x) for x in stat.readline().split()[1:]]


def jiffies(before: list[int], after: list[int]) -> tuple[int, int, int]:
    """Stolen, busy and total jiffies of all CPUs between two reads."""
    delta = [b - a for a, b in zip(before, after)][:8]
    delta += [0] * (8 - len(delta))
    total = sum(delta)
    return delta[7], total - delta[3] - delta[4], total


@dataclass
class PassResult:
    """What one timed pass did; ``check`` fills ``failed`` afterwards.

    ``time_s`` and ``latencies_s`` exclude what the hypervisor stole:
    they are CPU time of the thread doing the work on paper and
    advisory, and the wall time less its stolen share on sweep, whose
    pool spreads a pass over every CPU.  ``wall_s`` is the pass on the
    wall clock.
    """

    wall_s: float
    time_s: float
    latencies_s: list[float]
    attempted: int
    #: The pass's raw outputs, kept until the workload has checked them.
    outputs: object = None
    failed: int = 0
    #: Experiment ids and wall times aligned with ``latencies_s``
    #: (``paper`` only).
    labels: list[str] = field(default_factory=list)
    op_walls_s: list[float] = field(default_factory=list)


def render_section(result) -> str:
    """One artifact as ``python -m repro.experiments.reportgen`` writes it."""
    lines = [f"## {result.exp_id} — {result.title}", "", "```text",
             result.text, "```", ""]
    if result.checks:
        lines += ["| check | status | detail |", "|---|---|---|"]
        for check in result.checks:
            status = "PASS" if check.ok else "**FAIL**"
            detail = check.detail.replace("|", "\\|")
            lines.append(f"| {check.name} | {status} | {detail} |")
        lines.append("")
    return "\n".join(lines) + "\n"


def expected_sections(markdown: str, exp_ids) -> dict[str, str]:
    """Each artifact's section of an EXPERIMENTS.md document."""
    starts = [m.start() for m in re.finditer(r"^## ", markdown, re.MULTILINE)]
    starts.append(len(markdown))
    sections = {}
    for begin, end in zip(starts, starts[1:]):
        head = markdown[begin:markdown.index("\n", begin)]
        exp_id = head[3:].split(" — ", 1)[0]
        if exp_id in exp_ids:
            sections[exp_id] = markdown[begin:end]
    return sections


def artifact(exp_id: str, seed: int) -> tuple[str, object]:
    """One artifact at ``seed``: its report section and its result."""
    from repro.experiments import registry
    from repro.rng import RngRegistry

    result = registry.run_experiment(exp_id, registry=RngRegistry(seed))
    return render_section(result), result


class Paper:
    """All 21 artifacts per pass, solver sessions reset before each pass."""

    name = "paper"
    repeats_ops = True

    def __init__(self, seed: int, root) -> None:
        self.seed = seed
        self.root = root
        self.expected: dict[str, str] = {}
        self.shape_checks: dict[str, list[str]] = {}
        self.expected_source = ""

    def setup(self) -> None:
        """Warm-up pass; fixes the expected bytes of every artifact."""
        from repro.experiments import EXPERIMENTS
        from repro.rng import DEFAULT_SEED

        self.ids = EXPERIMENTS
        self.before_pass()
        warm = {exp_id: artifact(exp_id, self.seed) for exp_id in self.ids}
        if self.seed == DEFAULT_SEED:
            markdown = (self.root / "EXPERIMENTS.md").read_text(encoding="utf-8")
            self.expected = expected_sections(markdown, self.ids)
            self.expected_source = "EXPERIMENTS.md"
        else:
            self.expected = {exp_id: text for exp_id, (text, _r) in warm.items()}
            self.expected_source = "the warm-up pass"
        self.shape_checks = {
            exp_id: [c.render() for c in result.failed_checks()]
            for exp_id, (_text, result) in warm.items()
        }

    @staticmethod
    def before_pass() -> None:
        """Cold solver sessions, as one ``reportgen`` run pays them."""
        from repro.solver.session import reset_sessions

        reset_sessions()

    def run_pass(self, tracer=None) -> PassResult:
        start = _pc()
        latencies, walls, texts = [], [], []
        for exp_id in self.ids:
            w0, t0 = _pc(), _tt()
            texts.append(artifact(exp_id, self.seed)[0])
            latencies.append(_tt() - t0)
            walls.append(_pc() - w0)
        return PassResult(_pc() - start, sum(latencies), latencies, len(self.ids),
                          texts, labels=list(self.ids), op_walls_s=walls)

    def check(self, result: PassResult) -> int:
        """Artifacts whose bytes differ from the expected ones."""
        return sum(
            text != self.expected.get(exp_id)
            for exp_id, text in zip(self.ids, result.outputs)
        )

    def finish(self) -> tuple[int, list[str]]:
        """No post-loop check: every artifact is compared after its pass."""
        return 0, []

    def close(self) -> None:
        pass


#: Nodes per package pair in the sweep host: ``scaled_host(32)`` is 64 nodes.
SWEEP_PACKAGES = 32
#: Nominal seconds per sweep host.  A run of S seconds measures the first
#: ``round(S / SWEEP_HOST_S)`` timed hosts of the seed's sequence however
#: fast the program is, so every version of it measures the same hosts.
SWEEP_HOST_S = 1.25


def model_bytes(model) -> str:
    """Canonical bytes of one class model."""
    return json.dumps(model.to_dict(), sort_keys=True)


def host_seeds(seed: int):
    """The topology seeds of the hosts a sweep characterizes, in order."""
    import numpy as np

    hosts = np.random.default_rng([seed, 0x5EED])
    while True:
        yield int(hosts.integers(1, 2**31 - 1))


class Sweep:
    """Algorithm 1 over every target x {write, read} of a fresh host per pass."""

    name = "sweep"
    repeats_ops = False

    def __init__(self, seed: int, root) -> None:
        self.seed = seed
        self.jobs = os.cpu_count() or 1
        self._hosts = host_seeds(seed)
        self.pool = None
        self.errors: list[str] = []
        self._check_target = None
        #: (start, end) of every timed pool call, for fabric accounting.
        self.calls: list[tuple[float, float]] = []

    def setup(self) -> None:
        from repro.fabric import FabricPool

        self.pool = FabricPool(jobs=self.jobs)
        self._characterize(next(self._hosts))
        self.setup_stats = self.pool.stats()

    @staticmethod
    def timed_passes(seconds: float) -> int:
        """Timed hosts in a run of ``seconds`` (see ``SWEEP_HOST_S``)."""
        return max(1, round(seconds / SWEEP_HOST_S))

    def _characterize(self, host_seed: int):
        from repro.rng import RngRegistry
        from repro.topology.builders import scaled_host

        machine = scaled_host(SWEEP_PACKAGES, seed=host_seed)
        return machine, self.pool.characterize_many(
            machine, machine.node_ids, registry=RngRegistry(self.seed)
        )

    def run_pass(self, tracer=None) -> PassResult:
        host_seed = next(self._hosts)
        before = cpu_times()
        start = _pc()
        try:
            _machine, out = self._characterize(host_seed)
        except Exception as exc:  # a raising pass fails all its models
            self.errors.append(f"host seed {host_seed}: {type(exc).__name__}: {exc}")
            out = None
        wall = _pc() - start
        stolen, _busy, total = jiffies(before, cpu_times())
        elapsed = wall * (1.0 - stolen / total) if total else wall
        if out is not None:
            self.calls.append((start, start + wall))
            out = (host_seed, out)
        return PassResult(wall, elapsed, [elapsed], 4 * SWEEP_PACKAGES, out)

    def check(self, result: PassResult) -> int:
        """Models missing from the pass (all of them if it raised).

        The first complete host is kept for the serial cross-check.
        """
        if result.outputs is None:
            return result.attempted
        host_seed, out = result.outputs
        models = {
            (target, mode): model_bytes(getattr(hc, f"{mode}_model"))
            for target, hc in out.items() for mode in ("write", "read")
        }
        if self._check_target is None:
            self._check_target = (host_seed, models)
        return result.attempted - len(models)

    def finish(self) -> tuple[int, list[str]]:
        """Serial in-process re-characterization of the first timed host.

        Returns the models that differ from their fabric twin, and notes.
        """
        from repro.core.characterize import HostCharacterizer
        from repro.rng import RngRegistry
        from repro.topology.builders import scaled_host

        if self._check_target is None:
            return 1, ["sweep: no timed host completed, nothing cross-checked"]
        host_seed, fabric = self._check_target
        machine = scaled_host(SWEEP_PACKAGES, seed=host_seed)
        serial = HostCharacterizer(machine, registry=RngRegistry(self.seed))
        out = serial.characterize_many(machine.node_ids)
        mismatched = sum(
            fabric.get((target, mode)) != model_bytes(getattr(hc, f"{mode}_model"))
            for target, hc in out.items() for mode in ("write", "read")
        )
        note = (f"sweep: host seed {host_seed} cross-checked against the serial "
                f"in-process HostCharacterizer: {len(fabric) - mismatched}/"
                f"{len(fabric)} models identical")
        return mismatched, [note] + [f"sweep: pass raised: {e}" for e in self.errors]

    def worker_peak_rss_kib(self) -> int:
        """Summed peak RSS of the live pool workers."""
        import multiprocessing

        return sum(peak_rss_kib(p.pid) for p in multiprocessing.active_children())

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


#: Requests generated per target of the reference host (8 targets).
ADVISORY_PER_TARGET = 500


def interleave_traffic(traces: "list[list[str]]") -> list[str]:
    """Round-robin per-target traces into one, ids renumbered by position."""
    merged = []
    for row in zip(*traces):
        merged.extend(row)
    out = []
    for i, line in enumerate(merged):
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            out.append(re.sub(r'"id": \d+', f'"id": {i}', line, count=1))
            continue
        msg["id"] = i
        out.append(json.dumps(msg, sort_keys=True, separators=(",", ":")))
    return out


def response_ok(line: str, response: str) -> bool:
    """Exactly one JSON-RPC line answering ``line``, never internal_error."""
    if not response.endswith("\n") or "\n" in response[:-1]:
        return False
    try:
        reply = json.loads(response)
    except json.JSONDecodeError:
        return False
    if ("result" in reply) == ("error" in reply):
        return False
    try:
        req_id = json.loads(line).get("id")
    except json.JSONDecodeError:
        req_id = None  # unparseable request: the reply cannot carry an id
    if reply.get("id") != req_id:
        return False
    return reply.get("error", {}).get("kind") != "internal_error"


def request_method(line: str) -> str:
    try:
        return str(json.loads(line).get("method"))
    except json.JSONDecodeError:
        return "parse_error"


def advisory_traffic(seed: int) -> list[str]:
    """The soak request mix for every target of the reference host, interleaved."""
    from repro.rng import RngRegistry
    from repro.service.soak import build_traffic
    from repro.topology.builders import reference_host

    machine = reference_host()
    root = RngRegistry(seed)
    return interleave_traffic([
        build_traffic(root.child(f"perfbench/advisory/target{t}"),
                      machine, t, ADVISORY_PER_TARGET)
        for t in machine.node_ids
    ])


class Advisory:
    """The soak request mix over all 8 targets, a fresh warmed service per pass."""

    name = "advisory"
    repeats_ops = True

    def __init__(self, seed: int, root) -> None:
        self.seed = seed
        self.reference: list[str] = []
        self.reference_ok: list[bool] = []
        #: Per-pass tier/solve counts read from the program (traced run).
        self.counters: list[dict] = []
        #: Traced run: reply label -> calls, wall_s and per-layer self_s.
        self.by_method: dict[str, dict] = {}

    def setup(self) -> None:
        from repro.topology.builders import reference_host

        self.machine = reference_host()
        self.traffic = advisory_traffic(self.seed)
        self.methods = [request_method(line) for line in self.traffic]
        self.reference = self._serve(None)[1]
        self.reference_ok = [
            response_ok(line, resp) for line, resp in zip(self.traffic, self.reference)
        ]

    def _service(self):
        from repro.rng import RngRegistry
        from repro.service import AdvisoryBackend, PlacementService
        from repro.service.soak import LogicalClock

        backend = AdvisoryBackend(self.machine, registry=RngRegistry(self.seed))
        clock = LogicalClock()
        service = PlacementService(backend, clock=clock)
        backend.warm(tuple(self.machine.node_ids))
        return service, clock

    def _serve(self, tracer):
        service, clock = self._service()
        if tracer is not None:
            with tracer.suspended():
                self._warm_refreshes = service.backend.tiers.stats(clock())["refreshes"]
        handle = service.handle_line
        advance = clock.advance
        latencies, responses = [], []
        self._accs = None
        if tracer is None:
            for line in self.traffic:
                t0 = _tt()
                responses.append(handle(line))
                latencies.append(_tt() - t0)
                advance()
        else:
            accs = []
            for i, line in enumerate(self.traffic):
                acc = tracer.req_acc = {}
                tracer.req = i
                t0 = _tt()
                responses.append(handle(line))
                latencies.append(_tt() - t0)
                accs.append(acc)
                advance()
            tracer.req_acc = tracer.req = None
            self._accs = accs
        return service, responses, latencies

    def run_pass(self, tracer=None) -> PassResult:
        start = _pc()
        service, responses, latencies = self._serve(tracer)
        return PassResult(_pc() - start, sum(latencies), latencies,
                          len(self.traffic), (service, responses))

    def check(self, result: PassResult) -> int:
        """Replies that differ from the warm-up pass or break totality.

        On traced passes this also folds each request's per-layer self
        times under its reply label and reads the program's counters.
        """
        service, responses = result.outputs
        ref, ref_ok = self.reference, self.reference_ok
        failed = sum(
            1 for i, resp in enumerate(responses) if resp != ref[i] or not ref_ok[i]
        )
        if self._accs is not None:
            for i, (resp, acc) in enumerate(zip(responses, self._accs)):
                label = "error" if resp.startswith('{"error"') else self.methods[i]
                entry = self.by_method.setdefault(label, {"calls": 0, "cpu_s": 0.0})
                entry["calls"] += 1
                entry["cpu_s"] += result.latencies_s[i]
                for layer, own in acc.items():
                    entry[layer] = entry.get(layer, 0.0) + own
            self.counters.append(self._read_counters(service))
        return failed

    def _read_counters(self, service) -> dict:
        """Tier answers from the live plane, solves from the tier store."""
        payload = service.metrics_payload()
        stats = service.backend.tiers.stats(service.clock())
        counters = payload["counters"]
        return {
            "tier1": counters.get("service.tier.1.answers", 0),
            "tier2": counters.get("service.tier.2.answers", 0),
            "tier3": counters.get("service.tier.3.answers", 0),
            "tier3_solves": stats["refreshes"] - self._warm_refreshes,
        }

    def finish(self) -> tuple[int, list[str]]:
        bad = self.reference_ok.count(False)
        notes = [f"advisory: {len(self.traffic)} requests per pass, "
                 f"{bad} warm-up replies fail the one-reply-per-request check"]
        return 0, notes

    def close(self) -> None:
        pass


def peak_rss_kib(pid: "int | str" = "self") -> int:
    """``VmHWM`` of a process, in KiB (0 when it cannot be read)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


WORKLOADS = {"paper": Paper, "sweep": Sweep, "advisory": Advisory}


if __name__ == "__main__":  # the Calibrator's process
    calibration_loop()  # imports numpy outside the timed loops
    for request in sys.stdin:
        print(json.dumps([calibration_loop() for _ in range(int(request))]), flush=True)
