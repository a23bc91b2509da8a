"""The ablation engine: matrices, ranking, caching, renderers, CLI."""

from __future__ import annotations

import json

import pytest

from repro.components import SystemConfig, component_names, loo_matrix
from repro.experiments import ablate
from repro.experiments.ablate import (
    AblationTarget,
    get_target,
    matrix_points,
    register_target,
    render_json,
    render_text,
    run_ablation,
    target_names,
)
from repro.experiments.sweep import configure

SHORT = 1_000_000


@pytest.fixture(autouse=True)
def _serial_uncached_sweep():
    """Each test starts from serial, uncached sweep defaults."""
    from repro.experiments import sweep
    previous_jobs, previous_cache = sweep._jobs, sweep._cache_dir
    configure(jobs=1, cache_dir="")
    yield
    sweep._jobs, sweep._cache_dir = previous_jobs, previous_cache


def fake_point(config="ioctopus", duration_ns=0, seed=0, accuracy=None,
               components=None):
    """Deterministic synthetic runner: ddio is load-bearing, xps is
    harmful, everything else is inert."""
    components = components or {}
    value = 100.0
    if components.get("ddio") is False:
        value -= 25.0
    if components.get("xps") is False:
        value += 10.0
    return {"metric": value}


@pytest.fixture
def fake_target():
    target = AblationTarget(
        figure="fake", metric="metric", unit="u", higher_is_better=True,
        fn=fake_point, base_params=(("config", "ioctopus"),),
        result_key="metric", description="synthetic ranking fixture")
    register_target(target)
    yield target
    del ablate._TARGETS["fake"]


def test_registered_targets_cover_the_headline_figures():
    assert "fig08" in target_names()
    assert get_target("fig08").metric == "mpps"
    assert not get_target("fig09").higher_is_better
    with pytest.raises(KeyError):
        get_target("fig99")


def test_duplicate_target_rejected(fake_target):
    with pytest.raises(ValueError):
        register_target(fake_target)


def test_matrix_points_carry_components_and_stable_kwargs():
    target = get_target("fig08")
    matrix = loo_matrix(SystemConfig("ioctopus"), names=["ddio"])
    points = matrix_points(target, matrix, SHORT, seed=3,
                           accuracy="exact")
    assert points[0]["components"] == {}
    assert points[1]["components"] == {"ddio": False}
    for point in points:
        assert point["config"] == "ioctopus"
        assert point["packet_bytes"] == 64
        assert point["seed"] == 3
        json.dumps(point)  # sweep-cache representable


def test_ranking_importance_and_harmful_flag(fake_target):
    report = run_ablation("fake", duration_ns=SHORT)
    assert report["baseline"]["value"] == 100.0
    rows = {tuple(row["components"]): row for row in report["rows"]}
    ddio = rows[("ddio",)]
    xps = rows[("xps",)]
    assert ddio["rank"] == 1
    assert ddio["importance"] == 25.0
    assert not ddio["harmful"] and not ddio["inert"]
    assert xps["harmful"]
    assert xps["rank"] == len(report["rows"])  # worst importance
    inert = rows[("arfs_migration",)]
    assert inert["inert"] and inert["importance"] == 0.0
    # One LOO row per registered component.
    assert len(report["rows"]) == len(component_names())


def test_lower_is_better_flips_importance(fake_target):
    flipped = AblationTarget(
        figure="fake-lat", metric="metric", unit="ns",
        higher_is_better=False, fn=fake_point,
        base_params=(("config", "ioctopus"),), result_key="metric",
        description="synthetic latency fixture")
    register_target(flipped)
    try:
        report = run_ablation("fake-lat", duration_ns=SHORT)
        rows = {tuple(row["components"]): row for row in report["rows"]}
        # Latency *dropping* 25 when ddio is removed would mean ddio
        # hurt latency: harmful under lower-is-better.
        assert rows[("ddio",)]["harmful"]
        assert rows[("xps",)]["importance"] == 10.0
        assert rows[("xps",)]["rank"] == 1
    finally:
        del ablate._TARGETS["fake-lat"]


def test_pairwise_rows(fake_target):
    report = run_ablation("fake", duration_ns=SHORT, pairwise=True,
                          components=["ddio", "xps"])
    labels = [tuple(row["components"]) for row in report["rows"]]
    assert ("ddio", "xps") in labels
    pair = next(row for row in report["rows"]
                if tuple(row["components"]) == ("ddio", "xps"))
    assert pair["value"] == 85.0


def test_rows_carry_stable_run_ids(fake_target):
    report = run_ablation("fake", duration_ns=SHORT)
    expected = {tuple(c.disabled_components()): c.run_id()
                for c in loo_matrix(SystemConfig("ioctopus"))}
    assert report["baseline"]["run_id"] == expected[()]
    for row in report["rows"]:
        assert row["run_id"] == expected[tuple(row["components"])]


def test_rerun_is_pure_cache_hits(fake_target, tmp_path):
    configure(cache_dir=str(tmp_path))
    first = run_ablation("fake", duration_ns=SHORT)
    second = run_ablation("fake", duration_ns=SHORT)
    assert first["cache"]["hits"] == 0
    assert second["cache"]["hit_rate"] == 1.0
    assert [row["value"] for row in second["rows"]] == \
        [row["value"] for row in first["rows"]]


def test_real_matrix_row_through_simulator():
    """One genuine adaptive-tier fig08 row end to end: removing ddio
    must rank first and be flagged load-bearing."""
    report = run_ablation("fig08", accuracy="adaptive", duration_ns=SHORT,
                          components=["ddio", "xps"])
    assert report["rows"][0]["components"] == ["ddio"]
    assert report["rows"][0]["importance"] > 0
    assert not report["rows"][0]["inert"]


def test_render_text_and_json(fake_target):
    report = run_ablation("fake", duration_ns=SHORT)
    text = render_text(report)
    assert "HARMFUL" in text
    assert "load-bearing" in text
    assert report["baseline"]["run_id"] in text
    parsed = json.loads(render_json(report))
    assert parsed["figure"] == "fake"
    assert len(parsed["rows"]) == len(report["rows"])


def test_cli_dispatch_and_report_file(fake_target, tmp_path, capsys):
    from repro.experiments.cli import main
    out = tmp_path / "report.json"
    code = main(["ablate", "--figure", "fake", "--json",
                 "--out", str(out)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["figure"] == "fake"
    assert json.loads(out.read_text())["figure"] == "fake"


@pytest.mark.parametrize("fidelity, variable, flag, tier", [
    ("quick", None, None, "adaptive"),
    ("normal", None, None, "exact"),
    ("quick", "exact", None, "exact"),
    ("normal", "adaptive", None, "adaptive"),
    ("quick", "exact", "adaptive", "adaptive"),
    ("normal", "adaptive", "exact", "exact"),
])
def test_cli_tier_is_the_flag_then_the_variable_then_the_fidelity(
        fake_target, monkeypatch, capsys, fidelity, variable, flag, tier):
    """ablate resolves its tier as the main CLI does: --accuracy wins,
    then REPRO_ACCURACY, then the fidelity's default."""
    from repro.experiments.ablate import main
    if variable is None:
        monkeypatch.delenv("REPRO_ACCURACY", raising=False)
    else:
        monkeypatch.setenv("REPRO_ACCURACY", variable)
    argv = ["--figure", "fake", "--fidelity", fidelity, "--json"]
    if flag is not None:
        argv += ["--accuracy", flag]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["accuracy"] == tier


def test_cli_unknown_figure_fails_cleanly(capsys):
    from repro.experiments.ablate import main
    assert main(["--figure", "fig99"]) == 2
    assert "fig99" in capsys.readouterr().err
