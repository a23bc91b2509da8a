"""The fleet determinism gate, tools/fleet_smoke.py (CI fleet-smoke):
on a tiny rack, inline, repeat and process-sharded runs must merge to
the same fingerprint, each fleet of a batch must merge to its
fingerprint alone, and the gate must fail when they do not."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "tools" / "fleet_smoke.py"
TINY_RACK = ["--servers", "2", "--connections", "2048", "--jobs", "2"]


@pytest.fixture
def fleet_smoke():
    spec = importlib.util.spec_from_file_location("fleet_smoke", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_fleet_smoke_fingerprints_match(fleet_smoke, capsys):
    assert fleet_smoke.main(TINY_RACK) == 0
    out = capsys.readouterr().out
    fingerprints = {line.split()[-1] for line in out.splitlines()
                    if "fingerprint" in line}
    assert len(fingerprints) == 1
    assert "fleet smoke OK" in out


def test_gate_fails_on_fingerprint_mismatch(fleet_smoke, monkeypatch,
                                            capsys):
    # A sharded leg that simulates something else (here: another seed,
    # run inline) must fail the gate.
    run_fleet = fleet_smoke.run_fleet

    def divergent(spec, master_seed, jobs):
        return run_fleet(spec, master_seed=master_seed + (jobs > 1), jobs=1)

    monkeypatch.setattr(fleet_smoke, "run_fleet", divergent)
    assert fleet_smoke.main(TINY_RACK) == 1
    captured = capsys.readouterr()
    assert "fingerprint is not deterministic" in captured.err
    assert "planned != served + lost" not in captured.err


def test_gate_fails_on_batch_mismatch(fleet_smoke, monkeypatch, capsys):
    # A batch that simulates something else (here: another seed) must
    # fail the gate, though every single-fleet leg agrees.
    run_fleets = fleet_smoke.run_fleets

    def divergent(specs, master_seed, jobs):
        return run_fleets(specs, master_seed=master_seed + 1, jobs=jobs)

    monkeypatch.setattr(fleet_smoke, "run_fleets", divergent)
    assert fleet_smoke.main(TINY_RACK) == 1
    captured = capsys.readouterr()
    assert ("batched fleets differ from their runs alone: baseline, "
            "pf-flap, server-down") in captured.err
    assert "fingerprint is not deterministic" not in captured.err
