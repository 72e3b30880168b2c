"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import SCENARIOS, main
from repro.obs import FIGURE2_LAYERS, LAYERS


class TestDemoCommand:
    def test_quickstart_query(self, capsys):
        assert main(["demo", "--scenario", "quickstart", "--query",
                     "select F.name from Provenance.file as F "
                     'where F.name like "/pass/%"']) == 0
        out = capsys.readouterr().out
        assert "/pass/raw.dat" in out
        assert "/pass/result.dat" in out

    def test_tree_output(self, capsys):
        assert main(["demo", "--scenario", "quickstart",
                     "--tree", "/pass/result.dat"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("/pass/result.dat")
        assert "transform" in out

    def test_no_action_hint(self, capsys):
        assert main(["demo"]) == 0
        assert "nothing asked" in capsys.readouterr().err

    def test_malware_scenario_builds(self):
        system = SCENARIOS["malware"]()
        assert system.find_by_name("/pass/codec.bin")

    def test_challenge_scenario_builds(self):
        system = SCENARIOS["challenge"]()
        assert system.find_by_name("/pass/out/atlas-x.gif")

    def test_node_rows_rendered(self, capsys):
        assert main(["demo", "--query",
                     "select F from Provenance.file as F limit 1"]) == 0
        out = capsys.readouterr().out
        assert "[FILE]" in out

    def test_tuple_rows_rendered(self, capsys):
        assert main(["demo", "--query",
                     "select F, F.name from Provenance.file as F "
                     "limit 1"]) == 0
        assert "|" in capsys.readouterr().out


class TestOtherCommands:
    # Deleted commands and flags are usage errors: nothing in CI, README
    # or the examples drove them, and SLOPolicy declares every limit.
    @pytest.mark.parametrize("argv", [
        ["bench", "--suite", "x"], ["bench", "--against", "x"],
        ["health", "--bench", "x"],
        ["bench"], ["inspect"], ["demo", "--dot", "-"],
        ["query", "--db", "x", "--explain", "q"],
        ["lint", "--rules"], ["lint", "--json", "src"],
        ["lint", "--query", "q"], ["stats", "--rollup", "volume"],
        ["profile", "--format", "table"], ["profile", "--top", "3"],
        ["journal", "--jsonl"], ["journal", "--kind", "x"],
        ["journal", "--slow-ms", "0"], ["health", "--max-p50", "1"],
        ["health", "--max-p99", "1"], ["health", "--max-dropped-spans", "1"],
        ["crashtest", "--json"], ["fsck", "--db", "x", "--json"]])
    def test_ratio_suite_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    def test_stats_text(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        for layer in FIGURE2_LAYERS:
            assert f"== {layer} ==" in out

    def test_stats_json_contract(self, capsys):
        # The quickstart metrics contract (docs/OBSERVABILITY.md):
        # every documented layer key, the Figure-2 ones active.
        assert main(["stats", "--scenario", "quickstart", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "quickstart"
        assert payload["simulated_elapsed_s"] > 0
        for layer in LAYERS:
            assert layer in payload["layers"]
        for layer in FIGURE2_LAYERS:
            counters = payload["layers"][layer]["counters"]
            assert sum(counters.values()) > 0, layer

    def test_stats_with_tracing(self, capsys):
        assert main(["stats", "--scenario", "quickstart", "--trace",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans_collected"] > 0

    @pytest.mark.parametrize("argv", [
        ["stats", "--json"], ["stats"], ["trace", "--json"], ["trace"]],
        ids=" ".join)
    def test_out_writes_every_format(self, argv, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert main(argv + ["--out", str(target)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"wrote {target}" in captured.err
        text = target.read_text()
        if "--json" in argv:
            json.loads(text)
        else:
            assert "pql" in text

    def test_trace_text(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "pql.execute" in out
        assert "waldo.drain" in out
        assert "sim=" in out and "wall=" in out

    def test_trace_json_with_limit(self, capsys):
        assert main(["trace", "--json", "--limit", "3"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["dropped_spans"] == 0
        spans = document["spans"]
        assert len(spans) == 3
        assert spans[-1]["name"] == "pql.execute"

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_trace_limit_below_one_is_a_usage_error(self, limit, capsys):
        """``--limit 0`` used to mean "every span" and ``--limit -1``
        dropped the oldest span while reporting none dropped."""
        assert main(["trace", "--json", "--limit", limit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--limit" in captured.err

    @pytest.mark.parametrize("argv", [
        ["query", "--db", "{db}", "select"],
        ["demo", "--query", "select"],
        ["stats", "--query", "select F from Provenance.file as F "
                             "where G.name = 1"],
        ["trace", "--query", "select"],
        ["profile", "--query", "select"],
        ["journal", "--query", "select"],
        ["health", "--query", "select"],
        ["demo", "--save", "{missing}/prov.passdb"],
        ["stats", "--out", "{missing}/stats.txt"],
        ["trace", "--out", "{missing}/trace.txt"],
        ["profile", "--out", "{missing}/stacks.folded"],
    ])
    def test_bad_query_or_path_is_a_usage_error(self, argv, tmp_path,
                                                 capsys):
        """One line naming the command, exit 2 -- not a traceback, and
        for ``health`` not the exit 1 of an SLO breach."""
        db = tmp_path / "prov.passdb"
        if "{db}" in argv:
            assert main(["demo", "--save", str(db)]) == 0
            capsys.readouterr()
        argv = [arg.format(db=db, missing=tmp_path / "missing")
                for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # ``demo`` and ``stats`` report the scenario they built first.
        message = captured.err.splitlines()[-1]
        assert "Traceback" not in captured.err
        assert message.startswith(f"{argv[0]}: ")
        assert "(line 1, column" in message or "missing" in message

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["demo", "--scenario", "nope"])


class TestPassviewCommands:
    def test_stats_prom_format(self, capsys):
        assert main(["stats", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_records_inserted counter" in out
        assert 'layer="waldo"' in out
        # Every non-comment line is "<name_and_labels> <value>".
        for line in out.splitlines():
            if line.startswith("#"):
                continue
            _, _, value = line.rpartition(" ")
            float(value)

    def test_trace_chrome_format(self, capsys):
        assert main(["trace", "--format", "chrome"]) == 0
        document = json.loads(capsys.readouterr().out)
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"
        xs = [e for e in events if e["ph"] == "X"]
        assert any(e["name"] == "waldo.drain" for e in xs)
        for event in xs:
            assert event["dur"] >= 0

    def test_trace_chrome_to_file(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(["trace", "--format", "chrome",
                     "--out", str(target)]) == 0
        json.loads(target.read_text())

    def test_profile_collapsed(self, capsys):
        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "waldo:waldo.drain" in out
        for line in out.splitlines():
            int(line.rsplit(" ", 1)[1])

    def test_journal_prints_jsonl(self, capsys):
        assert main(["journal"]) == 0
        events = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        kinds = {event["kind"] for event in events}
        assert {"waldo.drain", "pql.plan_compile"} <= kinds
        assert [event["seq"] for event in events] == sorted(
            event["seq"] for event in events)

    def test_health_ok(self, capsys):
        assert main(["health"]) == 0
        assert "health: OK" in capsys.readouterr().out

    def test_health_wap_violation_exits_nonzero(self, tmp_path, capsys):
        report = tmp_path / "crashtest.json"
        report.write_text(json.dumps({"totals": {"wap_violations": 1}}))
        assert main(["health", "--crashtest", str(report)]) == 1
        out = capsys.readouterr().out
        assert "health: FAIL" in out
        assert "FAIL wap_violations" in out

    def test_health_missing_crashtest_is_usage_error(self, capsys):
        missing = "/nonexistent/crashtest.json"
        assert main(["health", "--crashtest", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert missing in captured.err

    def test_health_crashtest_without_count_fails(self, tmp_path, capsys):
        report = tmp_path / "crashtest.json"
        report.write_text(json.dumps({"totals": {}}))
        assert main(["health", "--crashtest", str(report), "--json"]) == 1
        verdict = json.loads(capsys.readouterr().out)
        (check,) = [check for check in verdict["checks"]
                    if check["name"] == "wap_violations"]
        assert check["ok"] is False

    def test_health_json_verdict(self, capsys):
        assert main(["health", "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is True
        names = {check["name"] for check in verdict["checks"]}
        assert {"span_buffer_drops", "query_p99_s",
                "wap_violations"} <= names
