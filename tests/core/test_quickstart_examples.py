"""The examples must keep running — they are the public face of the API."""

import runpy


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
