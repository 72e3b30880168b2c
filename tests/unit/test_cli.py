"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import BENCH_SCHEMA, SCENARIOS, main
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

    def test_dot_to_stdout(self, capsys):
        assert main(["demo", "--scenario", "quickstart", "--dot", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph provenance")

    def test_dot_to_file(self, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        assert main(["demo", "--dot", str(target)]) == 0
        assert target.read_text().startswith("digraph provenance")

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
    def test_inspect(self, capsys):
        assert main(["inspect"]) == 0
        out = capsys.readouterr().out
        for component in ("interceptor", "analyzer", "distributor",
                          "lasagna", "waldo"):
            assert component in out

    def test_bench_tiny(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Linux Compile" in out
        assert "%" in out
        assert not list(tmp_path.iterdir())     # writes only to --out

    def test_bench_writes_results_json(self, tmp_path, capsys):
        target = tmp_path / "table2.json"
        assert main(["bench", "--scale", "0.02",
                     "--out", str(target)]) == 0
        results = json.loads(target.read_text())
        assert results["schema"] == BENCH_SCHEMA
        assert results["scale"] == 0.02
        workload = results["workloads"]["Linux Compile"]
        for key in ("ext3_elapsed_s", "passv2_elapsed_s", "overhead_pct",
                    "provenance_bytes", "index_bytes", "layers"):
            assert key in workload
        # Per-layer breakdown covers the documented contract keys.
        for layer in LAYERS:
            assert layer in workload["layers"]

    @pytest.mark.parametrize("argv", [
        ["bench", "--suite", "x"], ["bench", "--against", "x"],
        ["health", "--bench", "x"]])
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
        assert main(["stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "quickstart"
        assert payload["simulated_elapsed_s"] > 0
        for layer in LAYERS:
            assert layer in payload["layers"]
        for layer in FIGURE2_LAYERS:
            counters = payload["layers"][layer]["counters"]
            assert sum(counters.values()) > 0, layer

    def test_stats_with_tracing(self, capsys):
        assert main(["stats", "--trace", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans_collected"] > 0

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

    def test_stats_rollup_by_volume(self, capsys):
        assert main(["stats", "--rollup", "volume", "--format",
                     "json"]) == 0
        rolled = json.loads(capsys.readouterr().out)
        assert "pass" in rolled
        assert rolled["pass"]["counters"]["records_inserted"] > 0

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

    def test_profile_table(self, capsys):
        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "pql:pql.execute" in out
        assert "%" in out

    def test_profile_collapsed(self, capsys):
        assert main(["profile", "--format", "collapsed"]) == 0
        out = capsys.readouterr().out
        assert "waldo:waldo.drain" in out
        for line in out.splitlines():
            int(line.rsplit(" ", 1)[1])

    def test_journal_text(self, capsys):
        assert main(["journal"]) == 0
        captured = capsys.readouterr()
        assert "waldo.drain" in captured.out
        assert "events" in captured.err

    def test_journal_jsonl_and_kind_filter(self, capsys):
        assert main(["journal", "--jsonl", "--kind", "waldo.drain"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["kind"] == "waldo.drain"

    def test_journal_slow_threshold_zero_records_queries(self, capsys):
        assert main(["journal", "--jsonl", "--kind", "pql.slow_query",
                     "--slow-ms", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        event = json.loads(lines[0])
        assert "cache_hit" in event and "wall_s" in event

    def test_health_ok(self, capsys):
        assert main(["health"]) == 0
        assert "health: OK" in capsys.readouterr().out

    def test_health_injected_breach_exits_nonzero(self, capsys):
        assert main(["health", "--max-p99", "0.0"]) == 1
        out = capsys.readouterr().out
        assert "health: FAIL" in out
        assert "query_p99_s" in out

    def test_health_json_verdict(self, capsys):
        assert main(["health", "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is True
        names = {check["name"] for check in verdict["checks"]}
        assert {"span_buffer_drops", "query_p99_s",
                "wap_violations"} <= names
