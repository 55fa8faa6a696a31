"""Every registry entry prices its own result.

``MatchingResult.modeled_time`` is set by the solver that built the result:
the sequential runners price their work counters with
:class:`~repro.gpusim.costmodel.CpuCostModel`, the device runners report
their device's ledger, and the wrappers (``b-expand``, ``b-auction``) pass
on the modelled seconds of the solve they wrap.
"""

from __future__ import annotations

import pytest

from repro.capacity.expand import _inner_plan, build_expansion
from repro.core.api import SPECS, resolve_algorithm
from repro.generators.capacities import apply_capacity_spec
from repro.generators.suite import generate_instance
from repro.gpusim.costmodel import CpuCostModel
from repro.gpusim.device import reference_device

#: Runners priced with the CPU model when they run without a device.
CPU_RUNNERS = frozenset({
    "hk", "hkdw", "pfp", "pr", "cheap", "karp-sipser", "weighted-sap", "b-aug",
    "weighted-auction", "b-auction",
})


def _cases():
    for name, spec in SPECS.items():
        if name == "b-expand":
            continue
        capacities = [None]
        if spec.capacitated:
            # b-auction solves many-to-one assignment only: rows stay at 1.
            capacities += ["cols:2"] if name == "b-auction" else ["rows:3", "cols:2"]
        for caps in capacities:
            for device in (False, True) if spec.accepts_device else (False,):
                label = "-".join([name, *([caps] if caps else []), *(["device"] if device else [])])
                yield pytest.param(name, caps, device, {}, id=label)
    for caps in (None, "rows:3", "cols:2"):
        for inner in ("hk", "g-pr", "p-dbfs"):
            label = "-".join(["b-expand", *([caps] if caps else []), f"inner={inner}"])
            yield pytest.param("b-expand", caps, False, {"inner": inner}, id=label)


@pytest.fixture(scope="module")
def tiny_graph():
    return generate_instance("amazon0505", profile="tiny")


@pytest.mark.parametrize(("name", "capacities", "device", "kwargs"), list(_cases()))
def test_every_registry_entry_prices_its_result(name, capacities, device, kwargs, tiny_graph):
    graph = tiny_graph
    if capacities is not None:
        graph = apply_capacity_spec(graph, capacities, seed=20130421)
    built = []

    def factory():
        built.append(reference_device())
        return built[-1]

    plan = resolve_algorithm(name, device_factory=factory if device else None, **kwargs)
    result = plan.run(graph)
    assert isinstance(result.modeled_time, float)
    assert result.modeled_time > 0

    counters = result.counters
    if device:
        assert len(built) == 1
        assert result.modeled_time == built[0].elapsed_seconds
    elif name == "b-expand":
        inner = _inner_plan(kwargs["inner"])
        solved = inner.run(graph if capacities is None else build_expansion(graph)[0])
        assert result.modeled_time == solved.modeled_time
    elif name in CPU_RUNNERS:
        work = counters["edges_scanned"]
        if name == "pr":
            work += counters["gr_edges_scanned"] + counters["relabels"]
        assert result.modeled_time == CpuCostModel().seconds(work)
    elif SPECS[name].accepts_device:
        # Without a factory the GPU solvers build the default device, which
        # models the reference device.
        on_reference = resolve_algorithm(name, device_factory=reference_device).run(graph)
        assert result.modeled_time == on_reference.modeled_time
    else:
        assert name == "p-dbfs"
