"""The allocation memo that ``maxmin_rates`` replaced, frozen as a reference.

``AllocationCache`` validated a flow list, then served its rates from
an LRU map keyed by the flows' signature multiset and the used
capacities, solving cold (``_solve_groups``) only on a miss.  It is kept
here as it was but for its imports and its counters: ``SolverStats`` no
longer has hit or miss fields, so a miss still counts ``solves`` and a
hit counts on the cache's own ``hits``.  The oracle tests hold the cold
solve to every answer the memo gave, hits included.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterable, Mapping

from repro.errors import SimulationError
from repro.solver.incremental import _solve_groups

_SIGNATURE_ATTR = "_solver_signature"


def flow_signature(flow) -> tuple:
    """Canonical allocation identity of a flow, cached on the flow."""
    sig = getattr(flow, _SIGNATURE_ATTR, None)
    if sig is None:
        sig = (
            tuple(sorted(flow.resources)),
            float(flow.demand_gbps),
            float(flow.weight),
        )
        try:
            setattr(flow, _SIGNATURE_ATTR, sig)
        except AttributeError:  # pragma: no cover - slotted flow types
            pass
    return sig


class AllocationCache:
    """Max-min fair rates with multiset memoization."""

    def __init__(self, maxsize: int = 4096, stats=None) -> None:
        if maxsize < 1:
            raise SimulationError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.stats = stats
        self._memo: OrderedDict[tuple, dict] = OrderedDict()
        #: Lookups served from the memo.
        self.hits = 0

    def rates(
        self, flows: Iterable, capacities: Mapping[str, float]
    ) -> dict[str, float]:
        """Weighted max-min rates, same contract as ``maxmin_allocate``."""
        flow_list = list(flows)
        names = [f.name for f in flow_list]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate flow names in allocation: {sorted(names)}")
        for f in flow_list:
            for r in f.resources:
                if r not in capacities:
                    raise SimulationError(
                        f"flow {f.name!r} uses unknown resource {r!r}"
                    )
        used = sorted({r for f in flow_list for r in f.resources})
        for r in used:
            if capacities[r] <= 0:
                raise SimulationError(f"resource {r!r} has non-positive capacity")
        unbounded = sorted(
            f.name
            for f in flow_list
            if not f.resources and math.isinf(f.demand_gbps)
        )
        if unbounded:
            raise SimulationError(
                "unbounded allocation: elastic flow(s) traverse no resources: "
                f"{unbounded}"
            )
        if not flow_list:
            return {}

        signatures = [flow_signature(f) for f in flow_list]
        key = (
            tuple(sorted(signatures)),
            tuple((r, float(capacities[r])) for r in used),
        )
        per_signature = self._memo.get(key)
        if per_signature is not None:
            self._memo.move_to_end(key)
            self.hits += 1
        else:
            if self.stats is not None:
                self.stats.solves += 1
            per_signature = _solve_groups(
                signatures, {r: float(capacities[r]) for r in used}
            )
            self._memo[key] = per_signature
            while len(self._memo) > self.maxsize:
                self._memo.popitem(last=False)
        return {f.name: per_signature[sig] for f, sig in zip(flow_list, signatures)}
