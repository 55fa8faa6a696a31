"""Tests for the benchmark harness, the report builders and the CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench import (
    SuiteRunner,
    build_figure1,
    build_figure2,
    build_figure3,
    build_figure4,
    build_table1,
    geometric_mean,
    performance_profile,
    render_table,
    speedup_profile,
)
from repro.cli import main

_TINY_SUBSET = ("amazon0505", "roadNet-PA", "hugetrace-00000", "delaunay_n20")


@pytest.fixture(scope="module")
def tiny_suite_results():
    runner = SuiteRunner(profile="tiny", instances=_TINY_SUBSET)
    return runner.run()


# ------------------------------------------------------------------ harness
def test_geometric_mean():
    assert geometric_mean([1, 4]) == pytest.approx(2.0)
    assert geometric_mean([3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


def test_suite_runner_unknown_instance():
    with pytest.raises(KeyError):
        SuiteRunner(profile="tiny", instances=("no-such-graph",)).specs()


def test_suite_runner_results_structure(tiny_suite_results):
    assert len(tiny_suite_results) == len(_TINY_SUBSET)
    for res in tiny_suite_results:
        assert set(res.runs) == {"G-PR", "G-HKDW", "P-DBFS", "PR"}
        cards = {run.cardinality for run in res.runs.values()}
        assert len(cards) == 1  # every algorithm reaches the same maximum cardinality
        assert res.maximum_matching >= res.initial_matching
        for run in res.runs.values():
            assert run.modeled_seconds > 0
        assert res.speedup("G-PR") == pytest.approx(
            res.runs["PR"].modeled_seconds / res.runs["G-PR"].modeled_seconds
        )


# ----------------------------------------------------------------- profiles
def test_speedup_profile_shape():
    curves = speedup_profile({"A": [0.5, 2.0, 4.0], "B": [1.0, 1.0, 1.0]}, xs=np.array([0, 1, 3]))
    assert curves["A"] == [(0.0, 1.0), (1.0, pytest.approx(2 / 3)), (3.0, pytest.approx(1 / 3))]
    assert curves["B"][1] == (1.0, 1.0)
    with pytest.raises(ValueError):
        speedup_profile({"A": []})


def test_performance_profile_shape():
    curves = performance_profile(
        {"A": [1.0, 2.0], "B": [2.0, 1.0]}, xs=np.array([1.0, 2.0, 3.0])
    )
    assert curves["A"][0] == (1.0, 0.5)
    assert curves["A"][1] == (2.0, 1.0)
    with pytest.raises(ValueError):
        performance_profile({})
    with pytest.raises(ValueError):
        performance_profile({"A": [0.0]})


# ------------------------------------------------------------------ reports
def test_build_figure1_tiny():
    cells = build_figure1(
        profile="tiny",
        instances=("amazon0505", "roadNet-PA"),
        strategies=("adaptive:0.7", "fix:10"),
    )
    assert len(cells) == 3 * 2
    assert all(cell.geomean_seconds > 0 for cell in cells)
    variants = {cell.variant for cell in cells}
    assert variants == {"G-PR-First", "G-PR-NoShr", "G-PR-Shr"}


def test_build_figures_2_3_4(tiny_suite_results):
    fig2 = build_figure2(tiny_suite_results)
    assert set(fig2) == {"G-PR", "G-HKDW", "P-DBFS"}
    fig3 = build_figure3(tiny_suite_results)
    for points in fig3.values():
        assert points[-1][1] <= 1.0
    rows, average = build_figure4(tiny_suite_results)
    assert len(rows) == len(tiny_suite_results)
    assert average > 0


def test_build_and_render_table1(tiny_suite_results):
    table = build_table1(tiny_suite_results)
    assert len(table["rows"]) == len(_TINY_SUBSET)
    assert set(table["geomeans"]) == {"G-PR", "G-HKDW", "P-DBFS", "PR"}
    text = render_table(table)
    assert "GEOMEAN" in text
    assert "amazon0505" in text


# ---------------------------------------------------------------------- CLI
def test_cli_run_suite_instance(capsys):
    assert main(["run", "--graph", "amazon0505", "--profile", "tiny", "--algorithm", "pr"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph"] == "amazon0505"
    assert payload["cardinality"] > 0
    assert payload["modeled_seconds"] > 0


def test_cli_run_mtx(tmp_path, capsys, tiny_graph):
    from repro.graph import write_matrix_market

    path = tmp_path / "g.mtx"
    write_matrix_market(tiny_graph, path)
    assert main(["run", "--mtx", str(path), "--algorithm", "g-pr"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cardinality"] == 3


def test_cli_run_mtx_out_of_core_shards(tmp_path, capsys, tiny_graph):
    # Regression: the out-of-core path solved the matching, then crashed
    # asking the disk-backed sharded graph whether it had capacities.
    from repro.graph import write_matrix_market

    path = tmp_path / "g.mtx"
    write_matrix_market(tiny_graph, path)
    assert main(["run", "--mtx", str(path), "--algorithm", "hk", "--shards", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cardinality"] == 3
    assert payload["shards"] == 2
    assert payload["shard_counters"]["shard_jobs"] == 2
    assert "demand" not in payload


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "amazon0505" in out
    assert "g-pr" in out
    assert out.split("backends:\n", 1)[1].split() == ["inline", "thread", "process"]


@pytest.mark.parametrize(
    "command", [["batch", "--manifest", "-"], ["stream"], ["serve"]], ids=lambda c: c[0]
)
def test_cli_rejects_removed_backends(command, capsys):
    for backend in ("device", "compiled"):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--backend", backend])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_cli_table1(capsys):
    assert main(["table1", "--profile", "tiny", "--instances", "amazon0505", "roadNet-PA"]) == 0
    out = capsys.readouterr().out
    assert "GEOMEAN" in out


@pytest.mark.parametrize("figure", ["2", "3", "4"])
def test_cli_figures(capsys, figure):
    assert (
        main(
            [
                "figures",
                "--figure",
                figure,
                "--profile",
                "tiny",
                "--instances",
                "amazon0505",
                "roadNet-PA",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.strip()


def test_cli_figure1(capsys):
    assert main(["figures", "--figure", "1", "--profile", "tiny", "--instances", "amazon0505"]) == 0
    assert "G-PR-Shr" in capsys.readouterr().out


# ------------------------------------------------------------------- stream
def test_cli_stream_synthesized_trace(capsys):
    assert (
        main(
            [
                "stream",
                "--graph", "roadNet-PA",
                "--profile", "tiny",
                "--synthesize", "50",
                "--batch-size", "10",
                "--threshold", "1000",
                "--algorithm", "hk",
                "--format", "json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    events = payload["events"]
    assert events[0]["type"] == "initial"
    batches = [e for e in events if e["type"] == "batch"]
    assert len(batches) == 5
    assert all(b["mode"] == "incremental" for b in batches)
    summary = events[-1]
    assert summary["type"] == "summary"
    assert summary["updates"] == 50
    assert summary["recomputes"] == 0
    assert summary["cardinality"] > 0


def test_cli_stream_replays_jsonl_trace_through_engine(tmp_path, capsys):
    from repro.dynamic import write_update_trace
    from repro.generators import generate_instance, random_update_trace

    graph = generate_instance("roadNet-PA", profile="tiny", seed=20130421)
    trace = tmp_path / "updates.jsonl"
    write_update_trace(random_update_trace(graph, 40, seed=3), trace)
    assert (
        main(
            [
                "stream",
                "--graph", "roadNet-PA",
                "--profile", "tiny",
                "--trace", str(trace),
                "--batch-size", "20",
                "--threshold", "20",
                "--backend", "thread",
                "--algorithm", "pr",
            ]
        )
        == 0
    )
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    batches = [e for e in lines if e["type"] == "batch"]
    assert len(batches) == 2
    assert all(b["mode"] == "delegated" for b in batches)
    summary = lines[-1]
    # No backend field: stream output must serialise byte-identically
    # whichever engine backend ran the delegated recomputes.
    assert "backend" not in summary
    assert summary["recomputes"] == 2
    assert summary["delegate_edges_scanned"] > 0


def test_cli_stream_rejects_bad_trace(tmp_path, capsys):
    trace = tmp_path / "bad.jsonl"
    trace.write_text('{"op": "insert", "u": 0, "v": 0}\n{"op": "warp"}\n')
    assert main(["stream", "--graph", "roadNet-PA", "--profile", "tiny",
                 "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert "bad.jsonl:2" in err and "warp" in err


def test_cli_stream_requires_exactly_one_source(capsys):
    assert main(["stream", "--graph", "roadNet-PA"]) == 2
    assert main(["stream", "--graph", "roadNet-PA", "--trace", "x.jsonl",
                 "--synthesize", "5"]) == 2
    assert "exactly one of" in capsys.readouterr().err


# --------------------------------------------------------------- weighted CLI
def test_cli_run_weighted(capsys):
    assert main([
        "run", "--graph", "amazon0505", "--profile", "tiny",
        "--algorithm", "weighted-sap", "--weights", "uniform:1:50",
        "--objective", "min",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "W-SAP"
    assert payload["objective"] == "min"
    assert payload["total_weight"] >= payload["cardinality"]  # weights start at 1


def test_cli_run_weighted_mtx_values(tmp_path, capsys):
    import numpy as np

    from repro.generators import uniform_random_bipartite, uniform_weights
    from repro.graph import read_matrix_market, write_matrix_market

    graph = uniform_weights(
        uniform_random_bipartite(20, 20, avg_degree=3.0, seed=1), seed=2
    )
    path = tmp_path / "w.mtx"
    write_matrix_market(graph, path)
    assert main([
        "run", "--mtx", str(path), "--algorithm", "weighted-auction",
        "--weights", "values",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    from repro.weighted import weighted_sap_matching

    reread = read_matrix_market(path, with_weights=True)
    expected = weighted_sap_matching(reread).counters["total_weight"]
    assert payload["total_weight"] == pytest.approx(expected)
    assert np.isfinite(payload["total_weight"])


def test_cli_run_objective_rejected_for_cardinality_algorithms(capsys):
    code = main([
        "run", "--graph", "amazon0505", "--profile", "tiny",
        "--algorithm", "pr", "--objective", "min",
    ])
    assert code == 2
    assert "unexpected keyword" in capsys.readouterr().err


def test_cli_batch_weighted_manifest(tmp_path, capsys):
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        '{"graph": "roadNet-PA", "algorithm": "weighted-sap", '
        '"weights": "uniform:1:9", "objective": "max", "id": "sap"}\n'
        '{"graph": "roadNet-PA", "algorithm": "weighted-auction", '
        '"weights": "uniform:1:9", "objective": "max", "id": "auction"}\n'
    )
    assert main([
        "batch", "--manifest", str(manifest), "--profile", "tiny",
        "--no-cache", "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_id = {row["id"]: row for row in payload["results"]}
    assert by_id["sap"]["status"] == by_id["auction"]["status"] == "ok"
    assert by_id["sap"]["cardinality"] == by_id["auction"]["cardinality"]


def test_cli_run_unknown_graph_is_a_clean_error(capsys):
    # Regression: an unknown suite instance used to escape as a raw KeyError
    # traceback from `run` (batch and stream already caught it).
    assert main(["run", "--graph", "nonsense", "--profile", "tiny"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_batch_generates_structural_graph_once_across_weight_specs(
    tmp_path, capsys, monkeypatch
):
    # Regression: keying the memo on the weight spec regenerated the same
    # structural instance once per distinct spec.
    import repro.server.protocol as protocol

    calls = []
    original = protocol.generate_instance

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "generate_instance", counting)
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        '{"graph": "roadNet-PA", "algorithm": "weighted-sap", "weights": "uniform:1:9"}\n'
        '{"graph": "roadNet-PA", "algorithm": "weighted-sap", "weights": "geometric:0.2"}\n'
        '{"graph": "roadNet-PA", "algorithm": "pr"}\n'
    )
    assert main(["batch", "--manifest", str(manifest), "--profile", "tiny",
                 "--no-cache"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_batch_rejects_bad_weight_spec(tmp_path, capsys):
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text('{"graph": "roadNet-PA", "weights": "gaussian", "id": "x"}\n')
    assert main(["batch", "--manifest", str(manifest), "--profile", "tiny"]) == 2
    assert "unknown weight spec" in capsys.readouterr().err


def test_cli_batch_objective_default_only_touches_weighted_jobs(tmp_path, capsys):
    # Regression: the CLI-level --objective default used to be folded into
    # every job's kwargs, so mixed manifests failed on the cardinality jobs.
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        '{"graph": "roadNet-PA", "algorithm": "weighted-sap", '
        '"weights": "uniform:1:9", "id": "w"}\n'
        '{"graph": "roadNet-PA", "algorithm": "pr", "id": "card"}\n'
    )
    assert main([
        "batch", "--manifest", str(manifest), "--profile", "tiny",
        "--no-cache", "--objective", "min", "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(row["status"] == "ok" for row in payload["results"])
    # An explicit per-line objective on a cardinality job still fails fast.
    manifest.write_text('{"graph": "roadNet-PA", "algorithm": "pr", "objective": "min"}\n')
    assert main(["batch", "--manifest", str(manifest), "--profile", "tiny"]) == 2
    assert "unexpected keyword" in capsys.readouterr().err


def test_cli_batch_weights_default_only_touches_weighted_jobs(tmp_path, capsys):
    # Regression: the --weights default used to re-weight cardinality jobs'
    # graphs too, changing their cache keys (and 'values' aborted the batch).
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        '{"graph": "roadNet-PA", "algorithm": "weighted-sap", "id": "w"}\n'
        '{"graph": "roadNet-PA", "algorithm": "pr", "id": "card"}\n'
    )
    assert main([
        "batch", "--manifest", str(manifest), "--profile", "tiny",
        "--no-cache", "--weights", "uniform:1:9", "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(row["status"] == "ok" for row in payload["results"])
    # The weighted job saw the weights; totals differ from plain cardinality.
    by_id = {row["id"]: row for row in payload["results"]}
    assert by_id["w"]["cardinality"] == by_id["card"]["cardinality"]


def test_cli_batch_shards_default_only_touches_shardable_jobs(tmp_path, capsys):
    # Regression: the --shards default also reached capacitated algorithms,
    # which cannot run sharded, so a mixed manifest aborted.
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        '{"graph": "roadNet-PA", "algorithm": "b-aug", "capacities": "fixed:2"}\n'
        '{"graph": "roadNet-PA", "algorithm": "hk"}\n'
    )
    assert main([
        "batch", "--manifest", str(manifest), "--profile", "tiny",
        "--no-cache", "--shards", "3", "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["status"] for row in payload["results"]] == ["ok", "ok"]


def test_cli_batch_values_spec_requires_mtx_source(tmp_path, capsys, monkeypatch):
    # Regression: weights="values" on a suite instance only failed in phase 2,
    # after graph generation; also spec kinds are case-insensitive.
    import repro.server.protocol as protocol

    monkeypatch.setattr(
        protocol, "generate_instance",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError("graph built")),
    )
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text('{"graph": "roadNet-PA", "weights": "VALUES", "id": "x"}\n')
    assert main(["batch", "--manifest", str(manifest), "--profile", "tiny"]) == 2
    assert "needs an 'mtx' source" in capsys.readouterr().err


def test_cli_run_values_spec_is_case_insensitive(tmp_path, capsys):
    import numpy as np

    from repro.generators import uniform_random_bipartite, uniform_weights
    from repro.graph import write_matrix_market

    graph = uniform_weights(
        uniform_random_bipartite(15, 15, avg_degree=3.0, seed=3), seed=4
    )
    path = tmp_path / "w.mtx"
    write_matrix_market(graph, path)
    assert main([
        "run", "--mtx", str(path), "--algorithm", "weighted-sap", "--weights", "Values",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert np.isfinite(payload["total_weight"]) and payload["total_weight"] > 0


def test_cli_batch_rejects_bad_weight_spec_before_building_graphs(
    tmp_path, capsys, monkeypatch
):
    # Regression: a bad spec on the last line used to surface only in phase 2,
    # after every earlier graph had been generated.
    import repro.server.protocol as protocol

    def exploding(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("graph generation ran before manifest validation finished")

    monkeypatch.setattr(protocol, "generate_instance", exploding)
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        '{"graph": "roadNet-PA", "id": "ok"}\n'
        '{"graph": "roadNet-PA", "weights": "uniform:a:b", "id": "bad"}\n'
    )
    assert main(["batch", "--manifest", str(manifest), "--profile", "tiny"]) == 2
    err = capsys.readouterr().err
    assert ":2: malformed weight spec" in err
