"""Tests for the virtual GPU substrate: device, cost model, primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim import (
    CostLedger,
    DeviceSpec,
    VirtualGPU,
    device_exclusive_scan,
    launch_serialized,
)
from repro.gpusim.costmodel import CpuCostModel, GpuCostModel, MulticoreCostModel


# -------------------------------------------------------------------- device
def test_device_spec_defaults_match_tesla_c2050():
    spec = DeviceSpec()
    assert spec.total_cores == 448
    assert spec.num_sms == 14
    assert spec.warp_size == 32


def test_device_spec_scaled():
    spec = DeviceSpec().scaled(0.05)
    assert spec.total_cores < DeviceSpec().total_cores
    assert spec.kernel_launch_overhead_s < DeviceSpec().kernel_launch_overhead_s
    with pytest.raises(ValueError):
        DeviceSpec().scaled(0.0)
    with pytest.raises(ValueError):
        DeviceSpec().scaled(2.0)


def test_virtual_gpu_ledger_accumulates():
    gpu = VirtualGPU()
    gpu.charge_kernel("a", np.ones(100))
    gpu.charge_kernel("b", np.full(10, 5.0))
    assert gpu.ledger.n_launches == 2
    assert gpu.elapsed_seconds > 0
    per_kernel = gpu.ledger.by_kernel()
    assert set(per_kernel) == {"a", "b"}
    counters = gpu.ledger.counters()
    assert counters["kernel_launches"] == 2
    assert gpu.elapsed_seconds == gpu.ledger.kernel_seconds == counters["kernel_seconds"]


def test_ledger_counter_schema():
    # Every GPU result carries these keys (the benchmark goldens pin them);
    # transfers are not modelled, so transfer_bytes stays 0.
    expected = {
        "kernel_launches",
        "kernel_total_work",
        "kernel_seconds",
        "transfer_bytes",
        "per_kernel_seconds",
    }
    empty = CostLedger().counters()
    assert set(empty) == expected
    assert empty["transfer_bytes"] == 0 and empty["kernel_seconds"] == 0.0
    gpu = VirtualGPU()
    gpu.charge_kernel("a", np.ones(64))
    counters = gpu.ledger.counters()
    assert set(counters) == expected
    assert counters["transfer_bytes"] == 0
    assert counters["per_kernel_seconds"] == {"a": counters["kernel_seconds"]}


# --------------------------------------------------------------- cost model
def test_launch_overhead_charged_even_for_empty_launch():
    spec = DeviceSpec()
    model = GpuCostModel(spec)
    seconds, total, divergent, max_thread = model.launch_seconds(np.zeros(0))
    assert seconds == pytest.approx(spec.kernel_launch_overhead_s)
    assert total == 0.0


def test_uniform_work_scales_with_threads():
    model = GpuCostModel(DeviceSpec())
    few, *_ = model.launch_seconds(np.full(32, 10.0))
    many, *_ = model.launch_seconds(np.full(32 * 1000, 10.0))
    assert many > few


def test_divergence_penalty():
    model = GpuCostModel(DeviceSpec())
    # Same total work, but concentrated in one thread per warp (divergent).
    balanced = np.full(320, 10.0)
    skewed = np.zeros(320)
    skewed[::32] = 100.0
    t_balanced, *_ = model.launch_seconds(balanced)
    t_skewed, *_ = model.launch_seconds(skewed)
    assert t_skewed > t_balanced * 0.99  # divergent warps cannot be cheaper
    # A single enormous thread bounds the launch by the critical path.
    single = np.zeros(448 * 10)
    single[0] = 1e6
    t_single, *_ = model.launch_seconds(single)
    expected = DeviceSpec().kernel_launch_overhead_s + 1e6 * DeviceSpec().cycles_per_op / (
        DeviceSpec().clock_ghz * 1e9
    )
    assert t_single == pytest.approx(expected, rel=1e-6)


def test_cpu_cost_model_linear():
    cpu = CpuCostModel()
    assert cpu.seconds(2_000_000) == pytest.approx(2 * cpu.seconds(1_000_000))


def test_multicore_cost_model_bounds():
    mc = MulticoreCostModel(n_threads=8)
    balanced = mc.round_seconds(total_ops=8000, max_thread_ops=1000)
    skewed = mc.round_seconds(total_ops=8000, max_thread_ops=8000)
    assert skewed > balanced
    with_atomics = mc.round_seconds(total_ops=8000, max_thread_ops=1000, atomics=10000)
    assert with_atomics > balanced


# ---------------------------------------------------------------- primitives
def test_exclusive_scan_matches_numpy():
    values = np.array([3, 1, 4, 1, 5, 9, 2, 6])
    scan, work = device_exclusive_scan(values)
    assert np.array_equal(scan, np.array([0, 3, 4, 8, 9, 14, 23, 25]))
    assert len(work) == len(values)


def test_exclusive_scan_empty():
    scan, work = device_exclusive_scan(np.array([], dtype=np.int64))
    assert len(scan) == 0
    assert len(work) == 0


# ----------------------------------------------------------------- serialized
def test_launch_serialized_runs_every_thread():
    hits = []

    def body(tid: int) -> float:
        hits.append(tid)
        return float(tid)

    work = launch_serialized(body, 5)
    assert sorted(hits) == [0, 1, 2, 3, 4]
    assert np.array_equal(work, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))


def test_launch_serialized_with_permutation():
    order_seen = []
    rng = np.random.default_rng(3)
    launch_serialized(lambda tid: order_seen.append(tid) or 1.0, 8, rng=rng)
    assert sorted(order_seen) == list(range(8))
    # With an explicit order the execution sequence is exactly that order.
    order_seen.clear()
    launch_serialized(lambda tid: order_seen.append(tid) or 1.0, 4, order=[3, 1, 0, 2])
    assert order_seen == [3, 1, 0, 2]


def test_launch_serialized_rejects_bad_order():
    with pytest.raises(ValueError):
        launch_serialized(lambda tid: 1.0, 3, order=[0, 0, 1])

