"""Tests for the experiment framework, registry and CLI plumbing."""

import pytest

from repro.core.configurations import Testbed
from repro.experiments import all_experiment_names, get_experiment
from repro.experiments.base import (
    DURATIONS_MS,
    Experiment,
    ExperimentResult,
    configure_accuracy,
    register,
)
from repro.experiments.cli import build_parser, main
from repro.experiments.fig15_nvme import build_nvme_host
from repro.sim.engine import Environment


def test_result_add_checks_arity():
    result = ExperimentResult("x", "ref", ["a", "b"])
    result.add(1, 2)
    with pytest.raises(ValueError):
        result.add(1)


def test_result_column_and_dicts():
    result = ExperimentResult("x", "ref", ["a", "b"])
    result.add(1, 2)
    result.add(3, 4)
    assert result.column("b") == [2, 4]
    assert result.as_dicts() == [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
    with pytest.raises(KeyError):
        result.column("missing")


def test_result_table_contains_title_and_notes():
    result = ExperimentResult("demo", "Fig X", ["v"], notes="hello")
    result.add(42)
    text = result.table()
    assert "demo (Fig X)" in text
    assert "42" in text
    assert "hello" in text


def test_experiment_duration_fidelities():
    experiment = Experiment()
    for fidelity, ms in DURATIONS_MS.items():
        assert experiment.duration_ns(fidelity) == ms * 1_000_000
    with pytest.raises(ValueError):
        experiment.duration_ns("extreme")


def test_base_experiment_run_is_abstract():
    with pytest.raises(NotImplementedError):
        Experiment().run()


def test_register_rejects_duplicates():
    with pytest.raises(ValueError):
        @register
        class Duplicate(Experiment):
            name = "fig02"  # already registered


def test_registry_instances_are_fresh():
    assert get_experiment("fig02") is not get_experiment("fig02")


@pytest.fixture
def adaptive_override(monkeypatch):
    monkeypatch.setenv("REPRO_ACCURACY", "exact")
    configure_accuracy("adaptive")
    yield
    configure_accuracy(None)


def test_accuracy_override_reaches_every_environment(adaptive_override):
    """--accuracy reaches testbeds built without a tier, as fig15,
    failover_ssd, abl_window and abl_octossd build them."""
    assert Testbed("local").accuracy == "adaptive"
    host, _ = build_nvme_host(octo_mode=False)
    assert host.machine.env.accuracy == "adaptive"
    for name in all_experiment_names():
        assert get_experiment(name).accuracy() == "adaptive", name


def test_bogus_repro_accuracy_is_rejected(monkeypatch):
    for bogus in ("bogus", "fluid"):
        monkeypatch.setenv("REPRO_ACCURACY", bogus)
        with pytest.raises(ValueError, match="REPRO_ACCURACY"):
            Environment()
        with pytest.raises(ValueError, match="REPRO_ACCURACY"):
            get_experiment("fig08").accuracy()


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in all_experiment_names():
        assert name in out


def test_cli_runs_named_experiment(capsys):
    assert main(["fig02"]) == 0
    assert "nic_single_gbps" in capsys.readouterr().out


def test_cli_requires_some_action(capsys):
    assert main([]) == 2


def test_cli_unknown_experiment(capsys):
    # Checked before anything runs: fig02 must not print its table.
    with pytest.raises(SystemExit) as exit_info:
        main(["fig02", "fig99"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown experiment(s): fig99" in captured.err
    for name in all_experiment_names():
        assert name in captured.err


@pytest.mark.parametrize("argv,error", [
    pytest.param(["fig16", "--servers", "0"],
                 "argument --servers: must be >= 1, got 0", id="--servers"),
    pytest.param(["fig16", "--connections", "0"],
                 "argument --connections: must be >= 1, got 0",
                 id="--connections"),
    pytest.param(["fig16", "--jobs", "0"],
                 "argument --jobs: must be >= 1, got 0", id="--jobs"),
    pytest.param(["obs", "--packet-bytes", "10"],
                 "argument --packet-bytes: must be >= 20, got 10",
                 id="obs--packet-bytes"),
    pytest.param(["obs", "--workload", "tcp_rx", "--message-bytes", "0"],
                 "argument --message-bytes: must be >= 1, got 0",
                 id="obs--message-bytes"),
    pytest.param(["obs", "blame", "--workload", "tcp_rx",
                  "--message-bytes", "0"],
                 "argument --message-bytes: must be >= 1, got 0",
                 id="obs-blame--message-bytes"),
    pytest.param(["ablate", "--jobs", "0"],
                 "argument --jobs: must be >= 1, got 0", id="ablate--jobs"),
    pytest.param(["fuzz", "--jobs", "0", "--cases", "1"],
                 "argument --jobs: must be >= 1, got 0", id="fuzz--jobs"),
    pytest.param(["obs", "diff", "--workload", "rr", "--size", "-5"],
                 "argument --size: must be >= 1, got -5",
                 id="obs-diff--size"),
    pytest.param(["obs", "diff", "--workload", "tcp_rx", "--size", "0"],
                 "argument --size: must be >= 1, got 0",
                 id="obs-diff-tcp_rx--size"),
    pytest.param(["obs", "diff", "--workload", "pktgen", "--size", "10"],
                 "argument --size: must be >= 20 for pktgen, got 10",
                 id="obs-diff-pktgen--size"),
    pytest.param(["obs", "diff", "--fidelity", "warp"],
                 "argument --fidelity: invalid choice: 'warp'",
                 id="obs-diff--fidelity"),
    pytest.param(["fig08", "--accuracy", "fluid"],
                 "argument --accuracy: invalid choice: 'fluid'",
                 id="--accuracy"),
    pytest.param(["ablate", "--accuracy", "fluid"],
                 "argument --accuracy: invalid choice: 'fluid'",
                 id="ablate--accuracy"),
    pytest.param(["obs", "--accuracy", "fluid"],
                 "argument --accuracy: invalid choice: 'fluid'",
                 id="obs--accuracy"),
    pytest.param(["obs", "blame", "--accuracy", "fluid"],
                 "argument --accuracy: invalid choice: 'fluid'",
                 id="obs-blame--accuracy"),
    pytest.param(["obs", "diff", "--accuracy", "fluid"],
                 "argument --accuracy: invalid choice: 'fluid'",
                 id="obs-diff--accuracy"),
    pytest.param(["fuzz", "--cases", "-3"],
                 "argument --cases: must be >= 1, got -3",
                 id="fuzz--cases"),
    pytest.param(["fuzz", "--fleet-every", "-2"],
                 "argument --fleet-every: must be >= 0, got -2",
                 id="fuzz--fleet-every"),
    pytest.param(["obs", "--sample-interval-us", "-5"],
                 "argument --sample-interval-us: must be >= 1, got -5",
                 id="obs--sample-interval-us"),
    pytest.param(["fuzz", "--replay-corpus", "no-such-corpus"],
                 "argument --replay-corpus: no .json corpus entries in "
                 "no-such-corpus",
                 id="fuzz--replay-corpus-missing"),
    pytest.param(["fuzz", "--replay-corpus", "examples"],
                 "argument --replay-corpus: no .json corpus entries in "
                 "examples",
                 id="fuzz--replay-corpus-empty"),
    pytest.param(["fuzz", "--cases", "1", "--invariants", "bogus"],
                 "argument --invariants: unknown invariants ['bogus']; "
                 "known: ['agreement', ",
                 id="fuzz--invariants"),
    pytest.param(["fuzz", "--time-budget", "-1"],
                 "argument --time-budget: must be > 0, got -1",
                 id="fuzz--time-budget"),
    pytest.param(["fuzz", "--shrink-budget", "-5"],
                 "argument --shrink-budget: must be >= 0, got -5",
                 id="fuzz--shrink-budget"),
    pytest.param(["obs", "diff", "--a", "missing.json", "--b",
                  "missing.json"],
                 "argument --a: no such file: missing.json",
                 id="obs-diff--a"),
    pytest.param(["obs", "diff", "--a", "README.md", "--b", "README.md"],
                 "argument --a: not a JSON file: README.md",
                 id="obs-diff--a-not-json"),
    pytest.param(["obs", "diff", "--a", "tests/corpus/s0-c3.json", "--b",
                  "tests/corpus/s0-c3.json"],
                 "argument --a: not an obs blame report: "
                 "tests/corpus/s0-c3.json",
                 id="obs-diff--a-not-report"),
    pytest.param(["obs", "diff", "--b", "BENCHMARK.json"],
                 "argument --b: not an obs blame report: BENCHMARK.json",
                 id="obs-diff--b-not-report"),
])
def test_cli_rejects_non_positive_counts(argv, error, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert error in capsys.readouterr().err


@pytest.fixture
def unconfigured(monkeypatch):
    """No --accuracy or --jobs configured yet; a CLI run configures them
    process-wide, so both are restored after the test."""
    from repro.experiments import sweep
    from repro.sim import engine
    monkeypatch.setattr(engine, "_accuracy_override", None)
    monkeypatch.setattr(sweep, "_jobs", None)


@pytest.mark.parametrize("argv", [
    pytest.param(["fig06", "--fidelity", "quick"], id="main"),
    pytest.param(["ablate", "--figure", "fig08", "--fidelity", "quick"],
                 id="ablate"),
])
@pytest.mark.parametrize("variable,value,error", [
    pytest.param("REPRO_ACCURACY", "bogus",
                 "REPRO_ACCURACY must be one of ('exact', 'adaptive'), "
                 "got 'bogus'", id="accuracy"),
    pytest.param("REPRO_SWEEP_JOBS", "0",
                 "REPRO_SWEEP_JOBS must be an integer >= 1, got '0'",
                 id="jobs-0"),
    pytest.param("REPRO_SWEEP_JOBS", "zero",
                 "REPRO_SWEEP_JOBS must be an integer >= 1, got 'zero'",
                 id="jobs-zero"),
])
def test_cli_rejects_bad_environment_before_running(
        argv, variable, value, error, unconfigured, monkeypatch, capsys):
    """Checked before anything runs: a run that started would reach the
    resolver mid-sweep and end in a ValueError traceback instead."""
    monkeypatch.setenv(variable, value)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {error}\n" in captured.err


def test_cli_flag_wins_over_bad_environment(unconfigured, monkeypatch,
                                            capsys):
    """A given --accuracy or --jobs is used, and its variable unread."""
    monkeypatch.setenv("REPRO_ACCURACY", "bogus")
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "zero")
    assert main(["fig02", "--accuracy", "exact", "--jobs", "1"]) == 0
    assert "nic_single_gbps" in capsys.readouterr().out


def test_cli_parser_fidelity_choices():
    parser = build_parser()
    args = parser.parse_args(["fig02", "--fidelity", "quick"])
    assert args.fidelity == "quick"
    with pytest.raises(SystemExit):
        parser.parse_args(["--fidelity", "warp"])
