"""Golden outputs: the full bytes of a sweep's files, of analyze's JSON and of
enumerate's graph6 lines.

The hashes pin every field the CLI writes, including the dominance and
cross-validation sections, certificate evidence, finding slack and detail,
and the summary's ``by_nt`` and ``min_positive_slack``. A change to any of
them must be deliberate: re-record the hashes and say why.
"""

import hashlib

import pytest

from cliquebounds import all_weights, enumerate_levels, random_gnp, write_graph6
from cliquebounds.cli import EXIT_OK, main

SEARCH_SHA256 = {
    "findings": "9fabb15e864afc769d6a80d1681ff86dc3dc0cf0567968c92ff01a0c9b7a6229",
    "summary": "581b60d2f826da79cdeeae5a6214d710f8cff714ea2c0a71470458b2b51d100b",
    "csv": "23426c6be50f5efd0718dba12d93c3d8c9f8b4c277db4717d20b5f46936392e3",
}
# Sweeps of one family of kinds each, recorded while an edge-path sweep still
# evaluated local_vertex alongside and the cycle verdict had its own path.
EDGE_PATH_SHA256 = {
    "findings": "f0087e2359a5feafb990e503815034f5316a145f43b263d2a289cbdad7a260c1",
    "summary": "edd081e764f5255802f7e3dc44462911666f0dfb3466db911cdbd11675225a73",
    "csv": "58346900837bd59ae2fed9f3b59371b0a567525b85f835c8bf16b5f891f438f7",
}
CYCLE_SHA256 = {
    "findings": "90c7205c9ba7b01abf0a38b5fdd24569cc39d0ff58ceb9805bf44c57b23f36e5",
    "summary": "6d371d249269cf2dca8d268e3dad2b457461972f14d7345587ecc0a45c8b44c5",
    "csv": "70accb8c6c2794c1bfe67d1ec742f470dd167fcd281a05c18de5a41cb1b8e185",
}
ANALYZE_SHA256 = "6aada39d65dd09a75d57d0a25941f66e08fe366d1b4df4b13fa022ed02c9f54f"
# analyze's human output over the same graphs and orders, and the stdout of
# `search --exhaustive 1,...,6 --t 1:6 --format json`, recorded while
# cross_validate still copied the vertex and edge-path reports and decided
# the edge-path verdict a second time.
ANALYZE_HUMAN_SHA256 = "bc9409e13891424bb1f4878b1188953115f9577188cf97bb8260d069ccd843ab"
SEARCH_JSON_STDOUT_SHA256 = "350669aa3525d882109223fa7c940f4055bb90f9b1042dc3aac1e81cf147ed83"
# analyze --format json over SPARSE_REPORT_GRAPHS, recorded while analyze
# still indented its JSON through json.dumps.
ANALYZE_SPARSE_SHA256 = "26f83138d02c546bfc7ad852f20dc979f23e54a3b222457839bb39ad7833ee34"
# verify, default kinds and orders, over DENSE_GRAPHS: dense graphs on 10..12
# vertices, where most reduced graphs repeat across orders and the cycle
# certificate's stripped graph is usually g itself.
VERIFY_DENSE_SHA256 = {
    "findings": "6b6aac8d783baa60d5760f0119a6b9fef05e64fdee39e24b99f04239d869aa77",
    "summary": "494d1d9ff77add8c96c98e6977e28856b51f7d92d4a4d80cf026837c2fc27f8d",
    "csv": "d0dfa28a04a86c30a74e49ecd41104efccefa634d1c3d2ce076756285531715b",
}

# `cliquebounds enumerate N`, recorded while every one-vertex extension was
# still labelled by the full product of class permutations.
ENUMERATE_SHA256 = {
    7: "ad530e8b8c46fd74efe41d701d5ee6cef01b846a4e6d662ead3cfa7d9a0d2b7f",
    8: "ddfbae53eb4c04c78afe6585f03aa6530c639322a0db28a0d7524ea4b1af56a0",
}

# p(e), c(e), the longest path and the circumference of SPARSE_TAIL, each
# searched at its own n as cap, recorded with the weight kernel before it
# peeled dead ends and ordered its steps by scarcity.
SPARSE_TAIL_SHA256 = "f4be414397519409857dd459fe311ff0bdb9e6b3c99c38e48dd344ef7bfc2edd"


DENSE_GRAPHS = [random_gnp(n, p, seed) for n in (10, 11, 12) for p in (0.5, 0.7) for seed in range(7)]

# Sparse G(n, p), n = 16..24, where the exact searches run longest. It holds
# G(22, 0.3, 1), one Hamiltonian block whose cycle searches must find a
# Hamiltonian cycle, and G(20, 0.2, 1) and G(24, 0.2, 1), with degree-2
# vertices, where many cycle searches must prove that no longer cycle exists.
SPARSE_TAIL = [(n, p, 1) for n in (16, 18, 20, 22, 24) for p in (0.2, 0.25, 0.3)]

# Sparse G(n, 0.3), n = 14..15, as analyze-sparse reads them: long p(e) and
# c(e) maps, several blocks and articulation points, and up to seven orders.
SPARSE_REPORT_GRAPHS = [random_gnp(n, 0.3, seed) for n in (14, 15) for seed in range(6)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep_hashes(argv: list[str], tmp_path, capsys) -> dict[str, str]:
    paths = {name: tmp_path / name for name in SEARCH_SHA256}
    code = main([*argv, "--findings", str(paths["findings"]), "--summary", str(paths["summary"]),
                 "--csv", str(paths["csv"])])
    capsys.readouterr()
    assert code == EXIT_OK
    return {name: sha256(path.read_bytes()) for name, path in paths.items()}


def test_search_outputs_are_byte_identical(tmp_path, capsys):
    argv = ["search", "--exhaustive", "1,2,3,4,5,6", "--t", "1:6", "--kinds", "all", "--min-slack"]
    assert sweep_hashes(argv, tmp_path, capsys) == SEARCH_SHA256


@pytest.mark.parametrize("options, expected", [
    (["--t", "2:6", "--kinds", "local_edge_path"], EDGE_PATH_SHA256),
    (["--kinds", "local_edge_cycle_conjecture,cc_cycle_classical"], CYCLE_SHA256),
])
def test_single_family_search_outputs_are_byte_identical(tmp_path, capsys, options, expected):
    assert sweep_hashes(["search", "--exhaustive", "1,2,3,4,5,6", *options], tmp_path, capsys) == expected


def test_edge_only_search_runs_no_core_decomposition(tmp_path, capsys, monkeypatch):
    """Only the vertex-core certificate reads the core numbers, so a sweep of
    local_edge_path alone decomposes no graph and keeps its outputs."""
    import cliquebounds.certificates as certificates

    calls = []
    real = certificates.core_numbers
    monkeypatch.setattr(certificates, "core_numbers", lambda g: calls.append(g) or real(g))
    argv = ["search", "--exhaustive", "1,2,3,4,5,6", "--t", "2:6", "--kinds", "local_edge_path"]
    assert sweep_hashes(argv, tmp_path, capsys) == EDGE_PATH_SHA256
    assert calls == []
    sweep_hashes(["search", "--exhaustive", "1,2,3", "--t", "2:3", "--kinds", "local_vertex"], tmp_path, capsys)
    assert len(calls) == 7  # one per graph on up to 3 vertices


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_verify_dense_outputs_are_byte_identical(tmp_path, capsys, parallelism):
    """The same bytes, the CSV rows included, whether merged in process or from the pool."""
    source = tmp_path / "dense.g6"
    source.write_text("".join(write_graph6(g) + "\n" for g in DENSE_GRAPHS))
    assert len(DENSE_GRAPHS) == 42 and min(g.m for g in DENSE_GRAPHS) == 18
    argv = ["verify", str(source), "--parallelism", parallelism]
    assert sweep_hashes(argv, tmp_path, capsys) == VERIFY_DENSE_SHA256


def analyze_small_hash(fmt: str, capsys) -> str:
    """The hash of analyze's output over every graph with n <= 5 at t = 1..6."""
    lines = [write_graph6(g) for level in enumerate_levels(range(1, 6)) for g in level]
    assert "C~" in lines and "D~{" in lines
    out = []
    for line in lines:
        assert main(["analyze", line, "--format", fmt, "--t", "1:6"]) == EXIT_OK
        out.append(capsys.readouterr().out)
    return sha256("".join(out).encode("utf-8"))


def test_analyze_json_is_byte_identical(capsys):
    assert analyze_small_hash("json", capsys) == ANALYZE_SHA256


def test_analyze_human_is_byte_identical(capsys):
    assert analyze_small_hash("human", capsys) == ANALYZE_HUMAN_SHA256


def test_analyze_json_of_large_reports_is_byte_identical(capsys):
    out = []
    for g in SPARSE_REPORT_GRAPHS:
        assert main(["analyze", write_graph6(g), "--format", "json"]) == EXIT_OK
        out.append(capsys.readouterr().out)
    assert sum(g.m for g in SPARSE_REPORT_GRAPHS) == 317
    assert sha256("".join(out).encode("ascii")) == ANALYZE_SPARSE_SHA256


def test_search_json_stdout_is_byte_identical(capsys):
    assert main(["search", "--exhaustive", "1,2,3,4,5,6", "--t", "1:6", "--format", "json"]) == EXIT_OK
    assert sha256(capsys.readouterr().out.encode("utf-8")) == SEARCH_JSON_STDOUT_SHA256


@pytest.mark.parametrize("n, lines", [(7, 1044), (8, 12346)])
def test_enumerate_output_is_byte_identical(capsys, n, lines):
    assert main(["enumerate", str(n)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert sha256(out.encode("ascii")) == ENUMERATE_SHA256[n]


def weights_digest(specs: list[tuple[int, float, int]]) -> str:
    h = hashlib.sha256()
    for n, p, seed in specs:
        w = all_weights(random_gnp(n, p, seed), cap=n)
        h.update(repr((n, p, seed, sorted(w.p.items()), sorted(w.c.items()), w.longest_path,
                       w.circumference)).encode())
    return h.hexdigest()


def test_sparse_tail_weights_are_unchanged():
    assert weights_digest(SPARSE_TAIL) == SPARSE_TAIL_SHA256
