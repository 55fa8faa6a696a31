"""The perf-regression harness: capture, baseline IO, comparison, CLI."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import perfbaseline
from repro.cli import main

INSTANCES = ["amazon0505", "roadNet-PA"]


@pytest.fixture(scope="module")
def capture_doc():
    return perfbaseline.capture(profile="tiny", instances=INSTANCES)


def test_capture_schema(capture_doc):
    assert capture_doc["schema"] == perfbaseline.SCHEMA_VERSION
    assert capture_doc["profile"] == "tiny"
    assert sorted(capture_doc["instances"]) == sorted(INSTANCES)
    assert capture_doc["algorithms"] == list(perfbaseline.PERF_ALGORITHMS)
    for inst in capture_doc["instances"].values():
        assert inst["n_edges"] > 0
        for name in perfbaseline.PERF_ALGORITHMS:
            rec = inst["algorithms"][name]
            assert rec["wall_seconds"] > 0
            assert rec["modeled_seconds"] > 0
            assert rec["cardinality"] > 0
    for agg in capture_doc["aggregate"].values():
        assert agg["geomean_wall_seconds"] > 0
        assert agg["total_wall_seconds"] > 0


def test_capture_rejects_bad_inputs():
    with pytest.raises(ValueError):
        perfbaseline.capture(profile="tiny", repeats=0)
    with pytest.raises(KeyError):
        perfbaseline.capture(profile="tiny", instances=["no-such-instance"])


def test_save_load_roundtrip(tmp_path, capture_doc):
    path = tmp_path / "BENCH_tiny.json"
    perfbaseline.save_baseline(path, capture_doc)
    assert perfbaseline.load_baseline(path) == capture_doc


def test_load_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        perfbaseline.load_baseline(bad)
    bad.write_text(json.dumps({"schema": 99}))
    with pytest.raises(ValueError):
        perfbaseline.load_baseline(bad)
    bad.write_text(json.dumps({"schema": 1}))
    with pytest.raises(ValueError):
        perfbaseline.load_baseline(bad)
    with pytest.raises(OSError):
        perfbaseline.load_baseline(tmp_path / "missing.json")


def test_compare_identical_is_clean(capture_doc):
    comparison = perfbaseline.compare(capture_doc, capture_doc)
    assert comparison.ok
    assert not comparison.cross_profile
    assert comparison.checked == len(INSTANCES) * len(perfbaseline.PERF_ALGORITHMS)
    assert comparison.regressions == [] and comparison.improvements == []


def test_compare_flags_wall_regression(capture_doc):
    slow = copy.deepcopy(capture_doc)
    rec = slow["instances"][INSTANCES[0]]["algorithms"]["HK"]
    rec["wall_seconds"] *= 100.0  # the interpreter-tax scenario
    comparison = perfbaseline.compare(slow, capture_doc)
    assert not comparison.ok
    [delta] = comparison.regressions
    assert (delta.instance, delta.algorithm, delta.metric) == (INSTANCES[0], "HK", "wall")
    assert delta.ratio == pytest.approx(100.0)
    assert "wall" in delta.describe()


def test_compare_flags_modeled_work_blowup(capture_doc):
    slow = copy.deepcopy(capture_doc)
    slow["instances"][INSTANCES[1]]["algorithms"]["PR"]["modeled_seconds"] *= 2.0
    comparison = perfbaseline.compare(slow, capture_doc)
    assert [d.metric for d in comparison.regressions] == ["modeled"]


def test_compare_flags_cardinality_change(capture_doc):
    wrong = copy.deepcopy(capture_doc)
    wrong["instances"][INSTANCES[0]]["algorithms"]["PFP"]["cardinality"] -= 1
    comparison = perfbaseline.compare(wrong, capture_doc)
    assert any(d.metric == "cardinality" for d in comparison.regressions)
    # A different seed means different graphs: cardinality is not compared.
    wrong["seed"] = 1
    comparison = perfbaseline.compare(wrong, capture_doc)
    assert not any(d.metric == "cardinality" for d in comparison.regressions)


def test_compare_rejects_disjoint_documents(capture_doc):
    # Zero overlapping pairs must not read as a pass (silent no-op gate).
    foreign = copy.deepcopy(capture_doc)
    foreign["instances"] = {
        f"renamed-{name}": inst for name, inst in foreign["instances"].items()
    }
    with pytest.raises(ValueError, match="0 \\(instance, algorithm\\) pairs"):
        perfbaseline.compare(capture_doc, foreign)


def test_compare_reports_improvements(capture_doc):
    fast = copy.deepcopy(capture_doc)
    fast["instances"][INSTANCES[0]]["algorithms"]["HK"]["wall_seconds"] /= 100.0
    comparison = perfbaseline.compare(fast, capture_doc)
    assert comparison.ok
    assert [d.algorithm for d in comparison.improvements] == ["HK"]


def test_compare_cross_profile_aggregates(capture_doc):
    # Pretend the baseline came from another profile: per-pair noise must be
    # aggregated per (algorithm, metric) and judged with the scaled tolerance.
    other = copy.deepcopy(capture_doc)
    other["profile"] = "small"
    comparison = perfbaseline.compare(capture_doc, other)
    assert comparison.cross_profile
    assert comparison.ok  # identical timings: all aggregate ratios are 1.0
    assert comparison.wall_tolerance == pytest.approx(
        perfbaseline.DEFAULT_WALL_TOLERANCE * perfbaseline.CROSS_PROFILE_SLACK
    )
    # A uniform 100x slowdown of one algorithm trips its aggregate.
    slow = copy.deepcopy(capture_doc)
    for inst in slow["instances"].values():
        inst["algorithms"]["P-DBFS"]["wall_seconds"] *= 100.0
    comparison = perfbaseline.compare(slow, other)
    assert [
        (d.instance, d.algorithm, d.metric) for d in comparison.regressions
    ] == [("<aggregate>", "P-DBFS", "wall")]


# ------------------------------------------------------------------ warm-up
def test_warmup_compiles_dispatch_twins_before_plan_runs(monkeypatch):
    """JIT compilation must happen inside the warm-up, never in a timed run."""
    from repro.compiled import dispatch

    events = []
    monkeypatch.setattr(
        dispatch, "warm_up", lambda registry=None: (events.append("jit"), 9)[1]
    )

    class _Plan:
        def run(self, graph):
            events.append("plan")

    monkeypatch.setattr(perfbaseline, "_perf_plans", lambda: {"X": _Plan()})
    perfbaseline._warmup()
    assert events[0] == "jit"
    assert events.count("jit") == 1
    assert "plan" in events


def test_capture_warms_before_any_timed_run(monkeypatch):
    events = []
    monkeypatch.setattr(perfbaseline, "_warmup", lambda: events.append("warmup"))
    real_run = perfbaseline.SuiteRunner.run

    def spy_run(self):
        events.append("run")
        return real_run(self)

    monkeypatch.setattr(perfbaseline.SuiteRunner, "run", spy_run)
    perfbaseline.capture(profile="tiny", instances=[INSTANCES[0]])
    assert events[0] == "warmup"
    assert "run" in events


def test_second_capture_shows_no_first_repeat_outlier():
    """Once warmed in-process, a repeated capture has no compile-cost spike.

    A missed warm-up lands one-time JIT compilation (or interpreter cache
    misses) on the first repeat of the first (instance, algorithm) pair —
    a 100x-scale outlier on these micro instances.  Load noise stays well
    inside the generous bound checked here.
    """
    first = perfbaseline.capture(profile="tiny", instances=[INSTANCES[0]])
    second = perfbaseline.capture(profile="tiny", instances=[INSTANCES[0]])
    for name, rec in second["instances"][INSTANCES[0]]["algorithms"].items():
        base = first["instances"][INSTANCES[0]]["algorithms"][name]
        assert rec["wall_seconds"] < 10.0 * base["wall_seconds"] + 1e-3
        assert rec["modeled_seconds"] == base["modeled_seconds"]
        assert rec["cardinality"] == base["cardinality"]


# ------------------------------------------------------------------- the CLI
def test_cli_perf_update_then_compare(tmp_path, capsys):
    baseline = tmp_path / "BENCH_tiny.json"
    report = tmp_path / "report.json"
    # Best of three on both sides: one-repeat walls of about a millisecond
    # swing past the 2.5x bound on a busy host.
    argv = ["perf", "--profile", "tiny", "--instances", *INSTANCES, "--repeats", "3"]
    assert main(argv + ["--update", str(baseline)]) == 0
    doc = perfbaseline.load_baseline(baseline)
    assert doc["profile"] == "tiny"
    capsys.readouterr()
    code = main(argv + ["--compare", str(baseline), "--output", str(report), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["comparison"]["ok"] is True
    assert payload["comparison"]["checked"] == len(INSTANCES) * len(
        perfbaseline.PERF_ALGORITHMS
    )
    assert report.is_file()  # the CI artifact


def test_cli_perf_detects_seeded_regression(tmp_path, capsys):
    baseline = tmp_path / "BENCH_tiny.json"
    argv = ["perf", "--profile", "tiny", "--instances", INSTANCES[0]]
    assert main(argv + ["--update", str(baseline)]) == 0
    doc = perfbaseline.load_baseline(baseline)
    for inst in doc["instances"].values():
        for rec in inst["algorithms"].values():
            rec["wall_seconds"] /= 1000.0  # impossible-to-beat baseline
    perfbaseline.save_baseline(baseline, doc)
    capsys.readouterr()
    assert main(argv + ["--compare", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out


def test_cli_perf_refuses_to_update_with_a_regressing_capture(tmp_path, capsys):
    # `--compare X --update X` on a regressed build must keep X intact;
    # overwriting it would mask the regression for every later run.
    baseline = tmp_path / "BENCH_tiny.json"
    argv = ["perf", "--profile", "tiny", "--instances", INSTANCES[0]]
    assert main(argv + ["--update", str(baseline)]) == 0
    doc = perfbaseline.load_baseline(baseline)
    for inst in doc["instances"].values():
        for rec in inst["algorithms"].values():
            rec["wall_seconds"] /= 1000.0
    perfbaseline.save_baseline(baseline, doc)
    capsys.readouterr()
    code = main(argv + ["--compare", str(baseline), "--update", str(baseline)])
    assert code == 1
    assert "not updating" in capsys.readouterr().err
    assert perfbaseline.load_baseline(baseline) == doc  # untouched


def test_cli_perf_disjoint_baseline_is_bad_input(tmp_path, capsys):
    baseline = tmp_path / "BENCH_tiny.json"
    argv = ["perf", "--profile", "tiny", "--instances", INSTANCES[0]]
    assert main(argv + ["--update", str(baseline)]) == 0
    doc = perfbaseline.load_baseline(baseline)
    doc["instances"] = {"renamed": doc["instances"][INSTANCES[0]]}
    perfbaseline.save_baseline(baseline, doc)
    capsys.readouterr()
    assert main(argv + ["--compare", str(baseline)]) == 2
    assert "0 (instance, algorithm) pairs" in capsys.readouterr().err


def test_cli_perf_bad_inputs(tmp_path, capsys):
    assert main(["perf", "--profile", "no-such-profile"]) == 2
    assert main(["perf", "--profile", "tiny", "--instances", "nope"]) == 2
    assert main(["perf", "--profile", "tiny", "--compare", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
