"""Campaign driver + CLI: end-to-end fuzz runs and exit codes."""

import pytest

from repro.experiments.cli import main as top_main
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.corpus import load_corpus
from repro.fuzz.harness import fuzz
from repro.fuzz.invariants import ALL_INVARIANTS


def test_small_campaign_is_clean():
    summary = fuzz(master_seed=0, cases=6)
    assert summary["cases_run"] == 6
    assert summary["failures"] == 0
    assert summary["repros"] == []
    assert not summary["truncated"]
    assert len(summary["results"]) == 6


def test_campaign_summaries_are_reproducible():
    def strip(summary):
        return [(r["case"]["case_id"], r["outcome"], r["fingerprint"],
                 r["violations"]) for r in summary["results"]]
    assert strip(fuzz(master_seed=2, cases=5)) == \
        strip(fuzz(master_seed=2, cases=5))


def test_mutation_campaign_catches_shrinks_and_serializes(tmp_path):
    invariants = ["conservation", "replay", "mutation_smoke"]
    summary = fuzz(master_seed=0, cases=10, invariants=invariants,
                   corpus_dir=str(tmp_path))
    assert summary["failures"] > 0
    assert summary["repros"]
    for repro in summary["repros"]:
        assert repro["violations"] == ["mutation_smoke"]
        assert len(repro["case"]["faults"]) <= 2
        assert repro["case"]["case_id"].endswith("-min")
    entries = load_corpus(str(tmp_path))
    assert len(entries) == len(summary["repros"])


def test_unknown_invariant_rejected():
    with pytest.raises(ValueError):
        fuzz(cases=1, invariants=["conservation", "nonsense"])


def test_time_budget_truncates():
    summary = fuzz(master_seed=0, cases=200, time_budget_s=1e-9)
    assert summary["truncated"]
    assert summary["cases_run"] < 200


# ----------------------------------------------------------------- CLI

def test_cli_list_invariants(capsys):
    assert fuzz_main(["--list-invariants"]) == 0
    out = capsys.readouterr().out
    assert "conservation" in out and "mutation_smoke" in out


def test_cli_clean_run_exits_zero(capsys):
    assert fuzz_main(["--seed", "0", "--cases", "4"]) == 0
    assert "0 invariant failures" in capsys.readouterr().out


def test_cli_mutation_run_exits_one(tmp_path, capsys):
    code = fuzz_main(["--seed", "0", "--cases", "10", "--mutate",
                      "--corpus-dir", str(tmp_path)])
    assert code == 1
    assert "repro" in capsys.readouterr().out
    assert load_corpus(str(tmp_path))


def test_cli_replay_corpus_exit_codes(tmp_path, capsys):
    fuzz_main(["--seed", "0", "--cases", "10", "--mutate",
               "--corpus-dir", str(tmp_path)])
    capsys.readouterr()
    assert fuzz_main(["--replay-corpus", str(tmp_path)]) == 0
    assert "0 mismatched" in capsys.readouterr().out


def test_cli_rejects_bad_invariant_selection(capsys):
    """An unknown invariant is a usage error listing the known ones."""
    with pytest.raises(SystemExit) as exit_info:
        fuzz_main(["--cases", "1", "--invariants", "conservation,nope"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown invariants ['nope']" in err
    for name in ALL_INVARIANTS:
        assert repr(name) in err


def test_top_level_cli_dispatches_fuzz(capsys):
    assert top_main(["fuzz", "--list-invariants"]) == 0
    assert "conservation" in capsys.readouterr().out
