"""CLI behavior: subcommands, formats, and the exit-code contract."""

import io
import json

import pytest

from cliquebounds.cli import EXIT_FINDINGS, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from cliquebounds.graph import write_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_k4_human(self, capsys):
        code, out, _ = run(capsys, "analyze", "C~", "--t", "3")
        assert code == EXIT_OK
        assert "count=4" in out
        assert "equality=True" in out
        assert "certificate=holds" in out
        assert "vertex=both-hold" in out

    def test_k4_json_schema(self, capsys):
        code, out, _ = run(capsys, "analyze", "C~", "--t", "3", "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["graph6"] == "C~" and report["n"] == 4 and report["m"] == 6
        kinds = {r["kind"] for r in report["reports"]}
        assert kinds == {
            "local_vertex",
            "wood_classical",
            "local_edge_path",
            "local_edge_cycle_conjecture",
            "cc_path_classical",
            "cc_cycle_classical",
        }
        for r in report["reports"]:
            assert r["count"] == 4
            assert r["bound"] == {"num": 4, "den": 1, "decimal": 4.0}
            assert r["equality"] is True
            assert r["certificate"]["holds"] is True

    def test_p4_edge_list_values(self, capsys, tmp_path):
        path = tmp_path / "p4.edges"
        path.write_text("4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "analyze", str(path), "--edge-list", "--t", "3", "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        by_kind = {r["kind"]: r for r in report["reports"]}
        assert by_kind["local_vertex"]["count"] == 0
        assert by_kind["local_vertex"]["bound"]["num"] == 2
        assert by_kind["local_vertex"]["bound"]["den"] == 3
        assert by_kind["local_edge_path"]["bound"] == {"num": 2, "den": 1, "decimal": 2.0}

    def test_tree_cycle_bound_is_zero_and_tight(self, capsys):
        # star on 4 vertices: conjectured cycle bound 0 equals the count, certificate holds
        code, out, _ = run(capsys, "analyze", "Cs", "--t", "3", "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        by_kind = {r["kind"]: r for r in report["reports"]}
        cyc = by_kind["local_edge_cycle_conjecture"]
        assert cyc["count"] == 0
        assert cyc["bound"]["num"] == 0
        assert cyc["equality"] is True
        assert cyc["certificate"]["holds"] is True

    def test_default_t_range_tracks_max_degree(self, capsys):
        code, out, _ = run(capsys, "analyze", "C~", "--format", "json")
        report = json.loads(out)
        assert report["t_values"] == [2, 3, 4]

    def test_each_certificate_graph_is_encoded_once(self, monkeypatch):
        """analyze encodes g once for its report, and each certificate's
        reduced graph at most once, however many orders and sections show it."""
        import functools

        import cliquebounds.certificates as certificates
        import cliquebounds.cli as cli
        from cliquebounds import parse_graph6
        from cliquebounds.cli import build_analyze_report

        encoded, rendered = [], []
        original = certificates.write_graph6
        for module in (certificates, cli):
            monkeypatch.setattr(module, "write_graph6", lambda h: encoded.append(h) or original(h))
        cls = certificates.EqualityCertificate
        encode = cls.__dict__["reduced_graph6"].func
        spy = functools.cached_property(lambda cert: rendered.append(cert) or encode(cert))
        spy.__set_name__(cls, "reduced_graph6")
        monkeypatch.setattr(cls, "reduced_graph6", spy)
        report = build_analyze_report(parse_graph6("IheA@GUAo"), [2, 3, 4])  # the Petersen graph
        assert len({id(cert) for cert in rendered}) == len(rendered) == 7
        # g for the report, then one certificate per kind (the vertex core's
        # included): at t = 2..4 the Petersen graph keeps one reduced graph each
        assert len(encoded) == 8
        kinds = ("wood_classical", "cc_path_classical", "cc_cycle_classical")
        classical = [r for r in report["reports"] if r["kind"] in kinds]
        assert len(classical) == 9
        assert all(r["certificate"]["reduced_graph6"] == report["graph6"] == "IheA@GUAo" for r in classical)

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "E??*")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_a_non_ascii_byte_in_a_file_names_its_position(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"\xffC\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err == "error: byte 0: invalid vertex-count character '\\udcff'\n"

    def test_bare_graph6_header_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", ">>graph6<<")
        assert code == EXIT_USAGE
        assert "no graph after" in err

    @pytest.mark.parametrize("graph", ["@", "C~", "-"])
    def test_negative_weight_cap_exits_2_before_any_graph(self, capsys, monkeypatch, graph):
        import cliquebounds.cli as cli

        def no_graph(*args, **kwargs):
            raise AssertionError("a graph was loaded")

        monkeypatch.setattr(cli, "load_single_graph", no_graph)
        code, out, err = run(capsys, "analyze", graph, "--weight-cap", "-1")
        assert code == EXIT_USAGE and out == ""
        assert "weight cap must be >= 0, got -1" in err and "exceeds cap" not in err

    def test_zero_weight_cap_is_a_cap_not_a_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "@", "--weight-cap", "0")
        assert code == EXIT_USAGE
        assert "n=1 exceeds cap 0" in err


class TestVerify:
    def test_k4_stream_yields_one_equality_row_per_kind(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
        code, out, _ = run(capsys, "verify", "-", "--t", "3", "--format", "jsonl")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 4
        assert {r["category"] for r in rows} == {"EQUALITY_INSTANCE"}
        assert {r["kind"] for r in rows} == {
            "local_vertex",
            "local_edge_path",
            "cc_cycle_classical",
            "local_edge_cycle_conjecture",
        }

    def test_malformed_line_names_position(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("C~\nBw\nE??*\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert "line 3" in err

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_malformed_line_keeps_the_rows_before_it(self, capsys, tmp_path, parallelism):
        """The CSV is streamed: a stop at line 3 leaves the header and the rows
        of lines 1-2, and writes no findings and no summary, also when a pool
        has read the whole file before the first record is merged."""
        path = tmp_path / "bad.g6"
        path.write_text("C~\nBw\nE??*\nCs\n")
        outputs = {name: tmp_path / name for name in ("findings.jsonl", "summary.json", "rows.csv")}
        code, _, err = run(capsys, "verify", str(path), "--t", "2:3", "--parallelism", parallelism,
                           "--findings", str(outputs["findings.jsonl"]),
                           "--summary", str(outputs["summary.json"]), "--csv", str(outputs["rows.csv"]))
        assert code == EXIT_USAGE and "line 3" in err
        assert not outputs["findings.jsonl"].exists() and not outputs["summary.json"].exists()
        header, *rows = outputs["rows.csv"].read_text().splitlines()
        assert header.startswith("graph6,n,m,t,kind,")
        # K4, then K3, each at t = 2 and 3, with one row per default kind
        cells = [row.split(",") for row in rows]
        assert [(c[0], c[3]) for c in cells] == [(line, t) for line in ("C~", "Bw") for t in "23" for _ in range(4)]

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_a_non_ascii_byte_in_a_file_names_its_line(self, capsys, tmp_path, parallelism):
        """A byte outside ASCII is a malformed line like any other, as on
        stdin: its line and byte are named, and the rows before it are kept."""
        path = tmp_path / "bad.g6"
        path.write_bytes(b"C~\nBw\nCs\n\xffC\nC~\n")
        csv = tmp_path / "rows.csv"
        code, out, err = run(capsys, "verify", str(path), "--t", "2:3", "--parallelism", parallelism, "--csv", str(csv))
        assert code == EXIT_USAGE and out == ""
        assert err == "error: line 4: byte 0: invalid vertex-count character '\\udcff'\n"
        _, *rows = csv.read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == [line for line in ("C~", "Bw", "Cs") for _ in range(2 * 4)]

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_a_failing_worker_names_its_graph(self, capsys, tmp_path, monkeypatch, parallelism):
        """An exception in a worker, a ValueError too, is a fault of the
        program: the sweep ends with exit 3 and names the graph, after the
        rows of the graphs before it, as at a malformed line."""
        import cliquebounds.search as search

        evaluate = search.evaluate_graph

        def failing(g, *args):
            if write_graph6(g) == "Bw":
                raise ValueError("planted")
            return evaluate(g, *args)

        monkeypatch.setattr(search, "evaluate_graph", failing)  # forked pool workers inherit it
        path = tmp_path / "stream.g6"
        path.write_text("C~\nBw\nCs\n")
        outputs = {name: tmp_path / name for name in ("findings.jsonl", "summary.json", "rows.csv")}
        code, _, err = run(capsys, "verify", str(path), "--t", "2:3", "--parallelism", parallelism,
                           "--findings", str(outputs["findings.jsonl"]),
                           "--summary", str(outputs["summary.json"]), "--csv", str(outputs["rows.csv"]))
        assert code == EXIT_INTERNAL
        traceback, error = err.rsplit("\n", 2)[:2]
        assert error == "error: Bw: ValueError: planted"
        assert traceback.startswith("Traceback") and traceback.endswith("ValueError: planted")
        assert not outputs["findings.jsonl"].exists() and not outputs["summary.json"].exists()
        _, *rows = outputs["rows.csv"].read_text().splitlines()
        assert [(row.split(",")[0], row.split(",")[3]) for row in rows] == [("C~", t) for t in "23" for _ in range(4)]

    def test_stdin_is_streamed_not_read_whole(self, capsys, monkeypatch, tmp_path):
        class LinesOnly(io.StringIO):
            def read(self, *args):
                raise AssertionError("stdin was read whole")

        text = "".join(line + "\n" for line in ("C~", "Bw", "", "DQw", "E~~w", "Cs"))
        path = tmp_path / "graphs.g6"
        path.write_text(text)
        code, expected, _ = run(capsys, "verify", str(path), "--t", "2:4", "--format", "jsonl")
        assert code == EXIT_OK and expected.count("\n") > 5
        monkeypatch.setattr("sys.stdin", LinesOnly(text))
        assert run(capsys, "verify", "-", "--t", "2:4", "--format", "jsonl") == (EXIT_OK, expected, "")
        monkeypatch.setattr("sys.stdin", LinesOnly("C~\nBw\nE??*\n"))
        code, _, err = run(capsys, "verify", "-")
        assert code == EXIT_USAGE
        assert "line 3" in err

    def test_repeated_kind_counts_once(self, capsys, tmp_path):
        outputs = {}
        for kinds in ("local_vertex", "local_vertex,local_vertex"):
            paths = [tmp_path / f"{kinds}.{name}" for name in ("findings", "summary", "csv")]
            code, _, _ = run(capsys, "search", "--exhaustive", "3", "--t", "2", "--kinds", kinds,
                             "--findings", str(paths[0]), "--summary", str(paths[1]), "--csv", str(paths[2]))
            assert code == EXIT_OK
            outputs[kinds] = [path.read_bytes() for path in paths]
        assert outputs["local_vertex,local_vertex"] == outputs["local_vertex"]
        findings, summary, rows = outputs["local_vertex"]
        assert findings.count(b"\n") == 5 and rows.count(b"\n") == 5
        by_nt = json.loads(summary)["by_nt"]
        assert sum(ks["local_vertex"]["evaluations"] for ks in by_nt.values()) == 4

    def test_exhaustive_file_clean_exit(self, capsys, tmp_path):
        from cliquebounds import enumerate_graphs, write_graph6

        path = tmp_path / "all5.g6"
        path.write_text("".join(write_graph6(g) + "\n" for g in enumerate_graphs(5)))
        code, out, _ = run(capsys, "verify", str(path), "--t", "2:5", "--kinds", "all")
        assert code == EXIT_OK
        assert "BOUND_VIOLATION" not in out

    def test_fail_on_selects_severity(self, capsys, tmp_path):
        path = tmp_path / "p3.g6"
        path.write_text("Bg\n")
        code, _, _ = run(capsys, "verify", str(path), "--t", "2")
        assert code == EXIT_OK
        code, _, _ = run(
            capsys, "verify", str(path), "--t", "2", "--fail-on", "CHAR_DISCREPANCY"
        )
        assert code == 1

    def test_usage_errors_come_before_a_missing_file(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.g6")
        for flags, named in ((("--t", "0"), "--t orders"), (("--kinds", "bogus"), "unknown bound kind"),
                             (("--kinds", ","), "--kinds"), (("--fail-on", "bogus"), "--fail-on")):
            code, _, err = run(capsys, "verify", missing, *flags)
            assert code == EXIT_USAGE and named in err and "missing.g6" not in err, flags
        code, _, err = run(capsys, "verify", missing)
        assert code == EXIT_USAGE and "missing.g6" in err

    def test_cap_errors_are_not_a_clean_run(self, capsys, tmp_path):
        from cliquebounds import from_edge_list, write_graph6

        path = tmp_path / "p21.g6"
        path.write_text(write_graph6(from_edge_list(21, [(i, i + 1) for i in range(20)])) + "\n")
        summary = tmp_path / "s.json"
        code, out, _ = run(capsys, "verify", str(path), "--summary", str(summary))
        assert code == EXIT_FINDINGS
        assert "cap errors: 1" in out
        assert len(json.loads(summary.read_text())["cap_errors"]) == 1

    def test_outputs_written(self, capsys, tmp_path):
        src = tmp_path / "k4.g6"
        src.write_text("C~\n")
        findings = tmp_path / "f.jsonl"
        summary = tmp_path / "s.json"
        csv_path = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys, "verify", str(src), "--t", "3",
            "--findings", str(findings), "--summary", str(summary), "--csv", str(csv_path),
        )
        assert code == EXIT_OK
        assert len(findings.read_text().splitlines()) == 4
        assert json.loads(summary.read_text())["graphs"] == 1
        header = csv_path.read_text().splitlines()[0]
        assert header == "graph6,n,m,t,kind,count,bound_num,bound_den,equality,certificate"


class TestSearch:
    def test_exhaustive_search_json(self, capsys):
        code, out, _ = run(
            capsys, "search", "--exhaustive", "3,4", "--t", "3", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["summary"]["graphs"] == 15

    def test_random_search_runs(self, capsys):
        code, out, _ = run(
            capsys, "search", "--random", "gnp", "--n", "7", "--count", "10",
            "--p", "0.5", "--seed", "5", "--t", "2:4", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["summary"]["graphs"] == 10

    @pytest.mark.parametrize("model", ["gnp", "regular"])
    @pytest.mark.parametrize("n", ["-1", "65"])
    def test_random_vertex_count_out_of_range_exits_2(self, capsys, model, n):
        code, _, err = run(capsys, "search", "--random", model, "--n", n, "--count", "1")
        assert code == EXIT_USAGE
        assert f"graph6 short form supports n in 0..62, got {n}" in err

    @pytest.mark.parametrize("flag, value, code", [
        ("--equality-cap", "-1", EXIT_USAGE),
        ("--equality-cap", "0", EXIT_OK),
        ("--parallelism", "-1", EXIT_USAGE),
        ("--parallelism", "0", EXIT_USAGE),
        ("--weight-cap", "-1", EXIT_USAGE),
        ("--max-edges", "-1", EXIT_USAGE),
    ])
    def test_sweep_number_minimums(self, capsys, monkeypatch, flag, value, code):
        import cliquebounds.search as search

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        got, out, err = run(capsys, "search", "--exhaustive", "4", "--t", "3", flag, value, "--format", "json")
        assert got == code
        if code == EXIT_USAGE:
            assert f"got {value}" in err
        else:  # a cap of 0 keeps every equality instance out of the findings
            assert all(f["category"] != "EQUALITY_INSTANCE" for f in json.loads(out)["findings"])

    @pytest.mark.parametrize("width", ["64", "65", "20000"])
    def test_parallelism_above_the_limit_exits_2_before_any_pool(self, capsys, monkeypatch, width):
        import cliquebounds.search as search

        class PoolStarted(Exception):
            pass

        widths = []

        def no_pool(max_workers):  # records the width the sweep asks for, and starts no process
            widths.append(max_workers)
            raise PoolStarted

        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        argv = ["search", "--exhaustive", "4", "--t", "3", "--parallelism", width]
        if width == "64":
            with pytest.raises(PoolStarted):
                main(argv)
            assert widths == [64]
        else:
            code, out, err = run(capsys, *argv)
            assert (code, out, widths) == (EXIT_USAGE, "", [])
            assert err == f"error: --parallelism must be in 1..64, got {width}\n"

    @pytest.mark.parametrize("value", ["4,x", "4,,5", ""])
    def test_malformed_exhaustive_list_names_the_flag(self, capsys, value):
        code, out, err = run(capsys, "search", "--exhaustive", value)
        assert code == EXIT_USAGE
        assert f"--exhaustive expects comma-separated vertex counts, got {value!r}" in err
        assert "invalid literal" not in err and "graphs analyzed" not in out

    @pytest.mark.parametrize("argv, named", [
        (("--random", "gnp", "--n", "6", "--count", "-5"), "count must be >= 0, got -5"),
        (("--random", "gnp", "--n", "6", "--max-edges", "-1"), "max edges must be >= 0, got -1"),
        (("--exhaustive", "4", "--max-edges", "-1"), "max edges must be >= 0, got -1"),
        (("--exhaustive", "4", "--weight-cap", "-1"), "weight cap must be >= 0, got -1"),
        # a random model's arguments are checked even when no graph is drawn, and
        # every out-of-range --n is named against the graph6 range 0..62
        (("--random", "gnp", "--n", "70", "--count", "0"), "graph6 short form supports n in 0..62, got 70"),
        (("--random", "gnp", "--n", "-1", "--count", "0"), "graph6 short form supports n in 0..62, got -1"),
        (("--random", "gnp", "--n", "63", "--count", "0"), "graph6 short form supports n in 0..62, got 63"),
        (("--random", "regular", "--n", "64", "--d", "2", "--count", "0"), "graph6 short form supports n in 0..62, got 64"),
        (("--random", "gnp", "--p", "1.5", "--count", "0"), "edge probability must be in [0, 1], got 1.5"),
        (("--random", "regular", "--n", "6", "--d", "9", "--count", "0"), "degree 9 infeasible for n=6"),
        (("--random", "regular", "--n", "5", "--d", "3", "--count", "0"), "n*d = 15 is odd"),
        (("--random", "gnp", "--n", "65", "--count", "0"), "graph6 short form supports n in 0..62, got 65"),
        # an order given twice would be swept twice
        (("--exhaustive", "3,3", "--t", "2:3"), "exhaustive vertex counts must be distinct, got 3,3"),
        (("--exhaustive", "1,2,1"), "exhaustive vertex counts must be distinct, got 1,2,1"),
    ])
    def test_negative_sweep_numbers_exit_2_before_any_graph(self, capsys, monkeypatch, argv, named):
        import cliquebounds.cli as cli
        import cliquebounds.search as search

        def no_graphs(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(cli, "random_gnp", no_graphs)
        monkeypatch.setattr(cli, "random_regular", no_graphs)
        monkeypatch.setattr(search, "enumerate_levels", no_graphs)
        code, out, err = run(capsys, "search", *argv)
        assert code == EXIT_USAGE
        assert named in err and "graphs analyzed" not in out

    def test_unwritable_csv_exits_2_before_any_graph(self, capsys, monkeypatch, tmp_path):
        import cliquebounds.search as search

        def no_graphs(*args, **kwargs):
            raise AssertionError("a graph was evaluated")

        monkeypatch.setattr(search, "evaluate_graph", no_graphs)
        findings, summary = tmp_path / "findings.jsonl", tmp_path / "summary.json"
        code, out, err = run(capsys, "search", "--exhaustive", "1,2,3,4,5,6", "--findings", str(findings),
                             "--summary", str(summary), "--csv", str(tmp_path / "no" / "such" / "x.csv"))
        assert code == EXIT_USAGE
        assert "x.csv" in err and "graphs analyzed" not in out
        assert not findings.exists() and not summary.exists()

    @pytest.mark.parametrize("value", ["EQUALITY_INSTENCE", "CHAR_DISCREPANCY,bogus"])
    def test_unknown_fail_on_category_exits_2(self, capsys, value):
        from cliquebounds.search import CATEGORIES

        argv = ("search", "--exhaustive", "4", "--t", "2")
        code, out, err = run(capsys, *argv, "--fail-on", value)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: --fail-on: unknown finding category")
        assert len(CATEGORIES) == 5 and all(category in err for category in CATEGORIES)
        assert run(capsys, *argv, "--fail-on", "EQUALITY_INSTANCE")[0] == EXIT_FINDINGS
        assert run(capsys, *argv, "--fail-on", ",")[0] == EXIT_OK

    @pytest.mark.parametrize("value", [",", "", " , "])
    def test_kinds_naming_no_kind_exits_2(self, capsys, value):
        code, out, err = run(capsys, "search", "--exhaustive", "4", "--t", "2", "--kinds", value)
        assert code == EXIT_USAGE
        assert err == f"error: --kinds names no bound kind, got {value!r}\n" and out == ""

    def test_exhaustive_order_over_the_cap_exits_2(self, capsys):
        code, _, err = run(capsys, "search", "--exhaustive", "3,9")
        assert code == EXIT_USAGE
        assert "external enumerator" in err

    def test_unknown_kind_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "search", "--exhaustive", "3", "--kinds", "bogus")
        assert code == EXIT_USAGE
        assert "unknown bound kind" in err
        # the all-orders kinds are bound kinds, but no sweep evaluates them, even over no graphs
        two, empty = tmp_path / "two.g6", tmp_path / "empty.g6"
        two.write_text("C~\nBw\n")
        empty.write_text("")
        for path in (two, empty):
            code, _, err = run(capsys, "verify", str(path), "--kinds", "wood_total")
            assert code == EXIT_USAGE
            assert "unknown bound kind 'wood_total'" in err
            assert "wood_total" not in err.split("per-order kinds:")[1]


@pytest.mark.parametrize("bad_t", ["0", "5:3", "a:b"])
@pytest.mark.parametrize("verb", ["analyze", "verify", "search"])
def test_invalid_t_range_exits_2(capsys, tmp_path, verb, bad_t):
    path = tmp_path / "k4.g6"
    path.write_text("C~\n")
    target = {"analyze": ["C~"], "verify": [str(path)], "search": ["--exhaustive", "3"]}[verb]
    code, _, err = run(capsys, verb, *target, "--t", bad_t)
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize("bad_t, named", [
    ("x", "--t expects an order or MIN:MAX, both integers, got 'x'"),
    ("2:x", "--t expects an order or MIN:MAX, both integers, got '2:x'"),
    ("3:", "--t expects an order or MIN:MAX, both integers, got '3:'"),
    ("0", "--t orders must be >= 1, got '0'"),
    ("-1:3", "--t orders must be >= 1, got '-1:3'"),
    ("3:2", "--t MAX must be >= MIN, got '3:2'"),
])
@pytest.mark.parametrize("verb", ["analyze", "search"])
def test_invalid_t_names_the_flag(capsys, verb, bad_t, named):
    target = {"analyze": ["C~"], "search": ["--exhaustive", "3"]}[verb]
    code, out, err = run(capsys, verb, *target, f"--t={bad_t}")
    assert code == EXIT_USAGE
    assert err == f"error: {named}\n" and out == ""


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 11

    def test_over_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "12")
        assert code == EXIT_USAGE
        assert "external enumerator" in err


class TestOracle:
    def test_cliques_agree(self, capsys):
        code, out, _ = run(capsys, "oracle", "C~", "--mode", "cliques")
        assert code == EXIT_OK
        assert "fast and oracle agree" in out

    def test_cliques_checks_the_census(self, capsys, monkeypatch):
        import cliquebounds.cli as cli

        census = cli.clique_census

        def planted(g):  # K_2 + 1 and K_3 - 1 keep the sum over all orders
            counts = census(g)
            return {**counts, 2: counts[2] + 1, 3: counts[3] - 1}

        monkeypatch.setattr(cli, "clique_census", planted)
        code, out, err = run(capsys, "oracle", "C~", "--mode", "cliques")
        assert code == EXIT_INTERNAL
        rows = out.splitlines()
        assert rows[1:5] == [
            "  1        4        4        4 ",
            "  2        6        7        6  MISMATCH",
            "  3        4        3        4  MISMATCH",
            "  4        1        1        1 ",
        ]
        assert len(rows) == 5
        assert err == "2 mismatch(es): fast path disagrees with the oracle\n"

    def test_pweights_agree(self, capsys):
        code, out, _ = run(capsys, "oracle", "D~{", "--mode", "pweights")
        assert code == EXIT_OK
        assert "all_weights: 10 of 10 edges agree\nfast and oracle agree" in out

    def test_pweights_checks_the_all_weights_kernel(self, capsys, monkeypatch):
        import dataclasses

        import cliquebounds.cli as cli

        kernel = cli.all_weights

        def planted(g):
            w = kernel(g)
            return dataclasses.replace(w, c={**w.c, (0, 1): w.c[0, 1] - 1})

        monkeypatch.setattr(cli, "all_weights", planted)
        code, out, err = run(capsys, "oracle", "D~{", "--mode", "pweights")
        assert code == EXIT_INTERNAL
        assert "all_weights: 9 of 10 edges agree MISMATCH 0-1\n" in out
        assert err == "1 mismatch(es): fast path disagrees with the oracle\n"

    def test_pweights_covers_the_analyze_sparse_orders(self, capsys):
        from cliquebounds import write_graph6
        from cliquebounds.enumeration import random_gnp

        code, out, _ = run(capsys, "oracle", write_graph6(random_gnp(15, 0.3, 2)), "--mode", "pweights")
        assert code == EXIT_OK
        assert "all_weights: 26 of 26 edges agree\nfast and oracle agree" in out

    def test_cap_error(self, capsys):
        from cliquebounds import from_edge_list, write_graph6

        big = write_graph6(from_edge_list(30, [(i, i + 1) for i in range(29)]))
        code, _, err = run(capsys, "oracle", big, "--mode", "cliques")
        assert code == EXIT_USAGE
        assert "n <= 10" in err

    def test_pweights_cap_error(self, capsys):
        from cliquebounds import from_edge_list, write_graph6

        big = write_graph6(from_edge_list(16, [(i, i + 1) for i in range(15)]))
        code, out, err = run(capsys, "oracle", big, "--mode", "pweights")
        assert code == EXIT_USAGE
        assert "n <= 15, got n=16" in err
        assert out == ""


def test_each_call_runs_the_command_function_the_module_holds_then(capsys, monkeypatch):
    """main builds its parser on every call, so a cmd_* replaced on the module
    after an earlier call, as a tracer does, is the one the next call runs."""
    import cliquebounds.cli as cli

    assert run(capsys, "analyze", "C~", "--t", "3")[0] == EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.graph) or EXIT_FINDINGS)
    assert run(capsys, "analyze", "C~")[0] == EXIT_FINDINGS
    assert run(capsys, "enumerate", "3")[0] == EXIT_OK
    assert seen == ["C~"]
