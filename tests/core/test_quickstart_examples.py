"""The examples must keep running — they are the public face of the API."""

import json
import re
import runpy
import sys


def _run_example(name, patches, capsys):
    """Run an example's ``main()`` with its duration constants shortened.

    ``runpy.run_path`` returns a copy of the module's globals, so the
    patches go into ``main.__globals__``, the namespace ``main`` reads.
    """
    main = runpy.run_path(f"examples/{name}.py", run_name="not-main")["main"]
    for attr, value in patches.items():
        assert attr in main.__globals__, f"examples/{name}.py has no {attr}"
        main.__globals__[attr] = value
    main()
    return capsys.readouterr().out


def test_quickstart_reports_all_configs(capsys):
    """The example's own claim: ioctopus prints the same throughput and
    memory bandwidth as local, and remote more memory bandwidth than
    both."""
    out = _run_example("quickstart", {"DURATION_NS": 8_000_000}, capsys)
    rows = {}
    for line in out.splitlines():
        # "<config> <throughput> Gb/s <membw> Gb/s <cpu>"
        fields = line.split()
        if len(fields) == 6 and fields[2] == fields[4] == "Gb/s":
            rows[fields[0]] = (fields[1], fields[3])
    assert set(rows) == {"local", "remote", "ioctopus"}
    assert rows["ioctopus"] == rows["local"]
    membw = {config: float(row[1]) for config, row in rows.items()}
    assert membw["remote"] > max(membw["local"], membw["ioctopus"])


def test_quickstart_output(capsys):
    out = _run_example("quickstart", {"DURATION_NS": 8_000_000}, capsys)
    for config in ("local", "remote", "ioctopus"):
        assert config in out
    assert "NUDMA cost" in out


def test_thread_migration_output(capsys):
    out = _run_example(
        "thread_migration",
        {"DURATION_NS": 120_000_000, "MIGRATE_AT_NS": 60_000_000,
         "SAMPLE_NS": 30_000_000}, capsys)
    assert "octoNIC" in out and "ethNIC" in out
    assert "sched_setaffinity" in out


def test_nvme_example_output(capsys):
    out = _run_example("nvme_nudma", {"DURATION_NS": 30_000_000,
                                      "WARMUP_NS": 6_000_000}, capsys)
    assert "octoSSD" in out
    assert "100%" in out


def test_pf_failover_degrades_and_recovers(capsys):
    """The example's own claim, at full length (about 1 s): throughput
    drops while PF1 is out, returns to within 1% of its pre-fault level,
    and both steering moves apply with nothing left in the old queues."""
    out = _run_example("pf_failover", {}, capsys)
    pre, during, after = map(float, re.search(
        r"pre-fault ([\d.]+) Gb/s -> degraded ([\d.]+) Gb/s "
        r"-> recovered ([\d.]+) Gb/s", out).groups())
    assert during < pre
    assert abs(after - pre) <= 0.01 * pre
    for event in ("failover.applied", "recovery.applied"):
        lines = [line for line in out.splitlines() if event in line]
        assert lines and all("residual=0" in line for line in lines)


def test_trace_export_writes_failover_events(tmp_path, monkeypatch, capsys):
    path = tmp_path / "trace.json"
    monkeypatch.setattr(sys, "argv", ["trace_export.py", str(path)])
    out = _run_example("trace_export", {}, capsys)
    assert str(path) in out
    events = json.loads(path.read_text())["traceEvents"]
    instants = {event["name"] for event in events if event["ph"] == "i"}
    assert {"failover.begin", "failover.applied", "recovery.begin",
            "recovery.applied"} <= instants


def test_keyvalue_colocation_claim(capsys):
    """The example's own claim: the remote placement serves less than
    the octoNIC both quiet and under QPI load, and loses the larger
    share to the STREAM antagonists."""
    out = _run_example("keyvalue_colocation", {"DURATION_NS": 20_000_000,
                                               "WARMUP_NS": 4_000_000},
                       capsys)
    rows = {}
    for line in out.splitlines():
        # "<placement> <quiet> KT/s <loaded> KT/s <loss>%"
        fields = line.split()
        if len(fields) == 6 and fields[2] == fields[4] == "KT/s":
            rows[fields[0]] = (float(fields[1]), float(fields[3]),
                               float(fields[5].rstrip("%")))
    assert set(rows) == {"ioctopus", "remote"}
    octo, remote = rows["ioctopus"], rows["remote"]
    assert remote[0] < octo[0] and remote[1] < octo[1]
    assert remote[2] > octo[2]
