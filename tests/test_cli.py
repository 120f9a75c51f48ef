"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.paper_queries import Q_ONLY_SQL


@pytest.fixture
def sql_file(tmp_path):
    path = tmp_path / "q_only.sql"
    path.write_text(Q_ONLY_SQL)
    return path


class TestRender:
    def test_text_to_stdout(self, sql_file, capsys):
        assert main(["render", str(sql_file)]) == 0
        output = capsys.readouterr().out
        assert "Frequents" in output and "∀" in output

    def test_no_simplify_keeps_not_exists(self, sql_file, capsys):
        assert main(["render", str(sql_file), "--no-simplify"]) == 0
        output = capsys.readouterr().out
        assert "∄" in output and "∀" not in output

    def test_dot_output_to_file(self, sql_file, tmp_path):
        target = tmp_path / "out.dot"
        assert main(["render", str(sql_file), "--format", "dot", "-o", str(target)]) == 0
        assert target.read_text().startswith("digraph")

    def test_svg_output(self, sql_file, capsys):
        assert main(["render", str(sql_file), "--format", "svg"]) == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("SELECT T.a FROM T WHERE T.a = 1"))
        assert main(["render", "-"]) == 0
        assert "T" in capsys.readouterr().out

    def test_invalid_sql_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sql"
        bad.write_text("SELECT FROM WHERE")
        assert main(["render", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_layout_overrides_change_svg_geometry(self, sql_file, capsys):
        assert main(["render", str(sql_file), "--format", "svg"]) == 0
        default_svg = capsys.readouterr().out
        assert (
            main(
                [
                    "render", str(sql_file), "--format", "svg",
                    "--row-height", "11", "--table-width", "85",
                ]
            )
            == 0
        )
        narrow_svg = capsys.readouterr().out
        assert narrow_svg != default_svg
        assert 'width="85.0"' in narrow_svg


class TestFingerprint:
    def test_single_file_prints_short_digest(self, sql_file, capsys):
        assert main(["fingerprint", str(sql_file)]) == 0
        output = capsys.readouterr().out.strip()
        digest, path = output.split()
        assert len(digest) == 16 and path == str(sql_file)

    def test_full_digest(self, sql_file, capsys):
        assert main(["fingerprint", str(sql_file), "--full"]) == 0
        assert len(capsys.readouterr().out.split()[0]) == 64

    def test_oversized_stdin_is_an_error(self, capsys, monkeypatch):
        import io

        from repro.sql.lexer import MAX_SQL_CHARS

        sql = "SELECT T.a FROM T WHERE " + "T.a = 1 AND " * (MAX_SQL_CHARS // 12) + "T.a = 1"
        assert len(sql) > MAX_SQL_CHARS
        monkeypatch.setattr("sys.stdin", io.StringIO(sql))
        assert main(["fingerprint", "-"]) == 1
        assert capsys.readouterr().err.startswith("error: SQL text of ")

    def test_fig24_variants_grouped_into_one_class(self, tmp_path, capsys):
        from repro.paper_queries import FIG24_VARIANTS

        paths = []
        for index, variant in enumerate(FIG24_VARIANTS):
            path = tmp_path / f"variant{index}.sql"
            path.write_text(variant)
            paths.append(str(path))
        assert main(["fingerprint", *paths]) == 0
        output = capsys.readouterr().out
        digests = {line.split()[0] for line in output.splitlines()[:3]}
        assert len(digests) == 1
        assert "3 compilations, 1 distinct diagrams" in output


class TestTrcAndStudy:
    def test_trc_output(self, sql_file, capsys):
        assert main(["trc", str(sql_file)]) == 0
        output = capsys.readouterr().out
        assert "∄S ∈ Serves" in output

    def test_trc_simplified(self, sql_file, capsys):
        assert main(["trc", str(sql_file), "--simplify"]) == 0
        assert "∀" in capsys.readouterr().out

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_command_runs(self, capsys):
        assert main(["study", "--questions", "9"]) == 0
        output = capsys.readouterr().out
        assert "42 legitimate" in output
        assert "Wilcoxon" in output


class TestExplainAndBenchExec:
    def test_explain_chinook_query(self, tmp_path, capsys):
        path = tmp_path / "join.sql"
        path.write_text(
            "SELECT A.Name FROM Artist A, Album AL "
            "WHERE A.ArtistId = AL.ArtistId"
        )
        assert main(["explain", str(path)]) == 0
        output = capsys.readouterr().out
        assert "HashJoin" in output and "Scan Artist AS A" in output

    def test_explain_other_schema(self, tmp_path, capsys):
        path = tmp_path / "sailors.sql"
        path.write_text(
            "SELECT S.sname FROM Sailor S WHERE NOT EXISTS "
            "(SELECT * FROM Reserves R WHERE R.sid = S.sid)"
        )
        assert main(["explain", str(path), "--schema", "sailors"]) == 0
        assert "NOT EXISTS" in capsys.readouterr().out

    def test_bench_exec_smoke(self, capsys):
        # Tiny scale keeps this a functional smoke test, not a benchmark.
        assert main(["bench-exec", "--scale", "1", "--repeat", "1", "--naive"]) == 0
        output = capsys.readouterr().out
        assert "rows:" in output and "ms cold" in output and "ms warm" in output
        assert "results identical to naive oracle: yes" in output

    def test_bench_exec_both_engines_with_json(self, capsys, tmp_path):
        json_path = tmp_path / "exec.json"
        assert (
            main(
                [
                    "bench-exec", "--engine", "both", "--rows", "900",
                    "--repeat", "1", "--json", str(json_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "columnar:" in output
        assert "identical results across engines: yes" in output
        import json

        payload = json.loads(json_path.read_text())
        assert payload["results_identical"] is True
        assert payload["workload_queries"] == 12
        assert payload["columnar_speedup_warm"] > 0
        assert payload["database_rows"] > 800

    def test_bench_exec_all_engines_with_json(self, capsys, tmp_path):
        json_path = tmp_path / "exec_all.json"
        assert (
            main(
                [
                    "bench-exec", "--engine", "all", "--rows", "900",
                    "--repeat", "1", "--json", str(json_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "sql:" in output and "sqlite load" in output
        assert "identical results across engines: yes" in output
        import json

        payload = json.loads(json_path.read_text())
        assert payload["results_identical"] is True
        assert payload["sql_cold_ms"] > 0 and payload["sql_warm_ms"] > 0
        assert payload["sql_vs_planned_warm"] > 0
        assert payload["columnar_speedup_warm"] > 0

    def test_bench_exec_fallback_covers_the_top_k_leg(self, capsys, monkeypatch):
        # CI's chaos plan: sql executions fail at random, the rows engine
        # answers them, in the join batch and in the ranked queries alike.
        from repro.faults import PLAN_ENV_VAR, clear_plan

        monkeypatch.delenv(PLAN_ENV_VAR, raising=False)
        plan = (
            '{"seed": 7, "rules": [{"point": "engine.sql.execute", '
            '"fault": "io", "probability": 0.3}]}'
        )
        try:
            code = main(
                [
                    "bench-exec", "--engine", "sql", "--scale", "2", "--repeat", "1",
                    "--fallback", "--fault-plan", plan,
                ]
            )
        finally:
            clear_plan()
        output = capsys.readouterr().out
        assert code == 0
        assert "fallback:" in output
        assert "ranked results consistent with full results: yes" in output

    def test_explain_sql_engine(self, tmp_path, capsys):
        path = tmp_path / "query.sql"
        path.write_text(
            "SELECT A.Name FROM Artist A, Album AL "
            "WHERE A.ArtistId = AL.ArtistId AND AL.AlbumId > 3"
        )
        assert main(["explain", str(path), "--engine", "sql"]) == 0
        output = capsys.readouterr().out
        # Both halves: the plan tree and the lowered, parameterized SQL.
        assert "HashJoin" in output
        assert "-- lowered SQL (sqlite) --" in output
        assert "SELECT DISTINCT * FROM (" in output
        assert ":p0" in output and "--   :p0 = 3" in output

    def test_bench_diagram_smoke(self, capsys, tmp_path):
        # Tiny corpus keeps this a functional smoke test, not a benchmark.
        json_path = tmp_path / "bench.json"
        assert (
            main(
                [
                    "bench-diagram", "--queries", "30", "--distinct", "10",
                    "--formats", "svg,text", "--json", str(json_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "cold:" in output and "batched:" in output and "speedup:" in output
        assert "fig24:    3 variants -> 1 fingerprint" in output

        import json

        payload = json.loads(json_path.read_text())
        assert payload["corpus_queries"] == 33
        assert payload["distinct_diagrams"] <= 13
        assert 0.0 <= payload["cache_hit_rate"] <= 1.0

    def test_bench_diagram_rejects_unknown_format(self, capsys):
        assert main(["bench-diagram", "--formats", "svg,bogus"]) == 2
        assert "error: unknown --formats bogus" in capsys.readouterr().err
