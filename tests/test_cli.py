"""Tests for the command-line interface."""


from repro.cli import DEMOS, main


def test_list_runs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "quickstart" in out
    assert "anomaly" in out


def test_demo_anomaly(capsys):
    assert main(["demo", "anomaly"]) == 0
    out = capsys.readouterr().out
    assert "performance anomaly" in out
    assert "Mb/s" in out


def test_demo_quickstart(capsys):
    assert main(["demo", "quickstart"]) == 0
    out = capsys.readouterr().out
    assert "MOS" in out
    assert "connection-metadata" in out


def test_demo_table2(capsys):
    assert main(["demo", "table2"]) == 0
    out = capsys.readouterr().out
    assert "cloud server / LTE" in out


def test_unknown_demo(capsys):
    assert main(["demo", "nope"]) == 2
    assert "unknown demo" in capsys.readouterr().err


def test_show_missing_report(capsys):
    assert main(["show", "ZZZ_does_not_exist"]) == 2


def test_every_registered_demo_returns_text():
    for name, fn in DEMOS.items():
        text = fn()
        assert isinstance(text, str) and len(text) > 50, name


# ----------------------------------------------------------------------
# fleet verb + fleet-aware list/show
# ----------------------------------------------------------------------
def test_list_includes_fleet_campaigns(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fleet campaigns" in out
    assert "cell256" in out and "smoke" in out


def test_show_finds_fleet_reports(tmp_path, monkeypatch, capsys):
    import repro.cli as cli

    monkeypatch.setattr(cli, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(cli, "FLEET_RESULTS_DIR", tmp_path / "fleet")
    (tmp_path / "fleet").mkdir()
    (tmp_path / "fleet" / "mycampaign.txt").write_text("fleet report body")
    assert main(["show", "mycampaign"]) == 0
    out = capsys.readouterr().out
    assert "fleet report body" in out


def test_fleet_runs_and_saves_report(tmp_path, monkeypatch, capsys):
    import repro.cli as cli

    monkeypatch.setattr(cli, "FLEET_RESULTS_DIR", tmp_path / "fleet")
    rc = main(["fleet", "smoke", "--seeds", "1", "-w", "1",
               "--no-cache", "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fleet campaign 'smoke'" in out
    assert (tmp_path / "fleet" / "smoke.txt").exists()


def test_fleet_inject_fault_keeps_clean_report(tmp_path, monkeypatch,
                                              capsys):
    """The fault-injection smoke writes its own report and leaves the
    campaign's clean (tracked) report alone."""
    import repro.cli as cli

    fleet_dir = tmp_path / "fleet"
    monkeypatch.setattr(cli, "FLEET_RESULTS_DIR", fleet_dir)
    fleet_dir.mkdir()
    clean = fleet_dir / "smoke.txt"
    clean.write_text("clean report\n")
    rc = main(["fleet", "smoke", "--seeds", "1", "-w", "1", "--no-cache",
               "--quiet", "--inject-fault", "--expect-quarantine"])
    assert rc == 0
    assert clean.read_text() == "clean report\n"
    injected = (fleet_dir / "smoke-inject-fault.txt").read_text()
    assert "quarantine" in injected.lower()
    assert "smoke-inject-fault.txt" in capsys.readouterr().err


def test_fleet_replay_prints_shard_aggregate(capsys):
    import json

    from repro.fleet import demo_campaigns

    tag = demo_campaigns()["smoke"].shards()[0].tag
    assert main(["fleet", "smoke", "--replay", tag]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["sessions"] == 1


def test_fleet_unknown_campaign(capsys):
    assert main(["fleet", "nope"]) == 2
    assert "unknown campaign" in capsys.readouterr().err


def test_fleet_expect_quarantine_fails_on_clean_run(tmp_path, monkeypatch,
                                                    capsys):
    import repro.cli as cli

    monkeypatch.setattr(cli, "FLEET_RESULTS_DIR", tmp_path / "fleet")
    rc = main(["fleet", "smoke", "--seeds", "1", "-w", "1", "--no-cache",
               "--quiet", "--expect-quarantine"])
    assert rc == 1


# ----------------------------------------------------------------------
# lint verb (simlint)
# ----------------------------------------------------------------------
def test_lint_clean_file_exits_zero(tmp_path, capsys):
    good = tmp_path / "src" / "repro" / "simnet" / "mod.py"
    good.parent.mkdir(parents=True)
    good.write_text("def f(sim):\n    return sim.now\n")
    assert main(["lint", str(good)]) == 0
    assert capsys.readouterr().out == ""


def test_lint_violation_exits_nonzero_with_location(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "simnet" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nt = time.time()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "SIM002" in out and "mod.py:2" in out


def test_lint_json_format(tmp_path, capsys):
    import json

    bad = tmp_path / "src" / "repro" / "core" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.random()\n")
    assert main(["lint", str(bad), "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert payload["findings"][0]["rule"] == "SIM001"


def test_lint_baseline_flow(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "core" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.random()\n")
    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(bad), "--write-baseline", str(baseline)]) == 0
    capsys.readouterr()
    assert main(["lint", str(bad), "--baseline", str(baseline)]) == 0
    # A fresh violation is not masked by the baseline.
    bad.write_text("import random\nx = random.random()\ny = random.choice([1])\n")
    assert main(["lint", str(bad), "--baseline", str(baseline)]) == 1


def test_lint_explain_and_list_rules(capsys):
    assert main(["lint", "--explain", "SIM001"]) == 0
    out = capsys.readouterr().out
    assert "child_rng" in out and "Bad:" in out
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006"):
        assert code in out


def test_lint_unknown_rule_is_usage_error(capsys):
    assert main(["lint", "--explain", "SIM999"]) == 2
    assert main(["lint", "--select", "NOPE", "src"]) == 2


# ----------------------------------------------------------------------
# selftest verb (determinism smoke)
# ----------------------------------------------------------------------
def test_selftest_determinism_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "byte-identical" in out
    assert out.count("fingerprint") == 2


def test_selftest_unknown_campaign(capsys):
    assert main(["selftest", "nope"]) == 2
    assert "unknown campaign" in capsys.readouterr().err
