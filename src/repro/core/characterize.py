"""Whole-host characterisation and probe-cost accounting.

§V-B's first application: "instead of benchmarking all possible
combinations, we can examine only one node from each class."  The
characterizer builds the memcpy models for every node that has devices
(or any requested set), and accounts how many benchmark configurations
the class structure saves relative to exhaustive probing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.iomodel import IOModelBuilder, sweep_targets
from repro.core.model import IOPerformanceModel
from repro.errors import ModelError
from repro.obs import recorder as _obs
from repro.rng import RngRegistry
from repro.topology.machine import Machine
from repro.units import GB, MiB

__all__ = ["HostCharacterization", "HostCharacterizer", "ProbeTimeEstimate"]


@dataclass(frozen=True)
class ProbeTimeEstimate:
    """Wall-clock cost of characterisation, with and without the model.

    The paper claims the methodology can "dramatically reduce
    characterization workload"; counting configurations (the 50 % cut)
    understates it, because an I/O probe moves 400 GB per stream while a
    memcpy probe moves megabytes.  All times are estimates from the
    measured rates themselves.
    """

    exhaustive_fio_s: float  # benchmark every node with real I/O
    memcpy_probe_s: float  # run Algorithm 1 instead
    representative_fio_s: float  # then validate one node per class
    n_operations: int  # I/O operations the exhaustive plan covers

    @property
    def reduced_total_s(self) -> float:
        """Model build plus representative validation."""
        return self.memcpy_probe_s + self.representative_fio_s

    @property
    def speedup(self) -> float:
        """Exhaustive cost over reduced cost."""
        return self.exhaustive_fio_s / self.reduced_total_s

    def render(self) -> str:
        """Summary lines."""
        return (
            f"exhaustive I/O benchmarking (~{self.n_operations} operations x "
            f"every node): ~{self.exhaustive_fio_s / 3600:.1f} h\n"
            f"memcpy model ({self.memcpy_probe_s:.0f} s) + representative "
            f"validation (~{self.representative_fio_s / 3600:.1f} h): "
            f"~{self.reduced_total_s / 3600:.1f} h total "
            f"-> {self.speedup:.1f}x less benchmarking time"
        )


@dataclass(frozen=True)
class HostCharacterization:
    """Models for one target node, with cost accounting."""

    machine_name: str
    target_node: int
    write_model: IOPerformanceModel
    read_model: IOPerformanceModel

    @property
    def exhaustive_probes(self) -> int:
        """I/O benchmark configurations without the model (both modes)."""
        return 2 * len(self.write_model.values)

    @property
    def reduced_probes(self) -> int:
        """Configurations with one representative per class (both modes)."""
        return self.write_model.n_classes + self.read_model.n_classes

    @property
    def cost_reduction(self) -> float:
        """Fraction of I/O benchmark work saved (paper: 50 % for reads)."""
        return 1.0 - self.reduced_probes / self.exhaustive_probes

    def time_estimate(
        self,
        n_operations: int = 3,
        gb_per_stream: float = 400.0,
        streams: int = 4,
        nominal_io_gbps: float = 20.0,
        memcpy_runs: int = 100,
        buffer_bytes: int = 64 * MiB,
    ) -> ProbeTimeEstimate:
        """Wall-clock comparison of exhaustive vs model-driven probing.

        Assumptions are the paper's own protocol: each I/O probe moves
        ``gb_per_stream`` GB per stream over ``streams`` streams (Table
        III) at a ``nominal_io_gbps`` aggregate; each Algorithm 1 probe
        copies ``memcpy_runs`` buffers per thread at the rate the model
        itself measured.
        """
        n_nodes = len(self.write_model.values)
        fio_probe_s = streams * gb_per_stream * GB * 8 / (nominal_io_gbps * 1e9)
        exhaustive = n_operations * 2 * n_nodes * fio_probe_s
        threads = self.write_model.threads
        memcpy_total = 0.0
        for model in (self.write_model, self.read_model):
            for value in model.values.values():
                bits = memcpy_runs * threads * buffer_bytes * 8
                memcpy_total += bits / (value * 1e9)
        representative = n_operations * self.reduced_probes * fio_probe_s
        return ProbeTimeEstimate(
            exhaustive_fio_s=exhaustive,
            memcpy_probe_s=memcpy_total,
            representative_fio_s=representative,
            n_operations=n_operations,
        )

    def render(self) -> str:
        """Both models plus the savings summary."""
        return "\n\n".join(
            [
                self.write_model.render(),
                self.read_model.render(),
                (
                    f"Probe cost: {self.reduced_probes} representative "
                    f"configurations instead of {self.exhaustive_probes} "
                    f"({100 * self.cost_reduction:.0f} % saved)"
                ),
                self.time_estimate().render(),
            ]
        )


class HostCharacterizer:
    """Run Algorithm 1 against one machine, any target set."""

    def __init__(
        self,
        machine: Machine,
        registry: RngRegistry | None = None,
        **builder_kwargs,
    ) -> None:
        self.machine = machine
        self.builder = IOModelBuilder(
            machine, registry=registry or RngRegistry(), **builder_kwargs
        )

    def device_nodes(self) -> tuple[int, ...]:
        """Nodes with at least one attached device."""
        return tuple(sorted({d.node_id for d in self.machine.devices.values()}))

    def characterize(self, target_node: int) -> HostCharacterization:
        """Write+read models for ``target_node``."""
        return self.characterize_many((target_node,))[target_node]

    def characterize_many(self, nodes) -> dict[int, HostCharacterization]:
        """Write+read models for several targets in one vectorized sweep.

        All targets' capacity probes go through the solver session in
        one batch per mode (:meth:`IOModelBuilder.build_many`); results
        are identical to characterising the nodes one by one.  ``nodes``
        is any iterable of distinct nodes
        (:func:`~repro.core.iomodel.sweep_targets`).
        """
        targets = sweep_targets(self.machine, nodes)
        with _obs.span("characterize.many", targets=len(targets)):
            write_models = self.builder.build_many(targets, "write")
            read_models = self.builder.build_many(targets, "read")
        return {
            node: HostCharacterization(
                machine_name=self.machine.name,
                target_node=node,
                write_model=write_models[node],
                read_model=read_models[node],
            )
            for node in targets
        }

    def characterize_devices(self) -> dict[int, HostCharacterization]:
        """Characterise every device-attached node (one batched sweep)."""
        nodes = self.device_nodes()
        if not nodes:
            raise ModelError(
                f"machine {self.machine.name!r} has no devices to characterise"
            )
        return self.characterize_many(nodes)
