import json
import sys

import pytest

from ldsramsey import (
    Color,
    LdsParams,
    TwoColoring,
    bound_report,
    export_dimacs,
    parse_coloring,
    parse_dimacs,
    serialize_coloring,
)
from ldsramsey.cli import main


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_all_red(path, r: int) -> None:
    col = TwoColoring(r)
    for i in range(r):
        for j in range(i + 1, r):
            col.set_edge(i, j, Color.RED)
    path.write_text(serialize_coloring(col), encoding="ascii")


class TestBound:
    def test_plain(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--c", "3", "--n", "3", "--m", "1")
        assert code == 0
        assert out == "S_3(3,1): lower=9 branch=A exact=9 provenance=Thm3.1\n"

    def test_no_exact_value(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--c", "3", "--n", "2", "--m", "1")
        assert code == 0
        assert "exact=none" in out

    def test_leafless_odd_path_prints_its_order(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--c", "3", "--n", "0", "--m", "0")
        assert code == 0
        assert out == "S_3(0,0): lower=3 branch=tie exact=none provenance=Burr\n"

    def test_even_link_prints_burr(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--c", "6", "--n", "1", "--m", "1")
        assert code == 0
        assert out == "S_6(1,1): lower=11 branch=B exact=none provenance=Burr\n"

    def test_json_matches_library(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--c", "3", "--n", "3", "--m", "1", "--json")
        assert code == 0
        assert json.loads(out) == bound_report(LdsParams(3, 3, 1)).to_json_dict()

    def test_bad_params(self, capsys):
        code, _, err = invoke(capsys, "bound", "--c", "0", "--n", "1", "--m", "1")
        assert code == 1
        assert "error" in err


class TestConstructDetectVerify:
    def test_extremal_pipeline_finds_nothing(self, capsys, tmp_path):
        out_file = tmp_path / "col.txt"
        code, out, _ = invoke(
            capsys, "construct", "--c", "3", "--n", "2", "--m", "1",
            "--family", "two-cliques", "--out", str(out_file),
        )
        assert code == 0
        assert f"wrote {out_file} r=6" in out
        assert parse_coloring(out_file.read_text(encoding="ascii")).r == 6
        code, out, _ = invoke(
            capsys, "detect", "--c", "3", "--n", "2", "--m", "1", "--coloring", str(out_file),
        )
        assert code == 0 and out == "none\n"
        code, out, _ = invoke(
            capsys, "detect", "--c", "3", "--n", "2", "--m", "1",
            "--coloring", str(out_file), "--json",
        )
        assert code == 0 and json.loads(out) is None

    def test_certify_flag(self, capsys, tmp_path):
        out_file = tmp_path / "col.txt"
        code, out, _ = invoke(
            capsys, "construct", "--c", "5", "--n", "2", "--m", "2",
            "--family", "clique-plus", "--out", str(out_file), "--certify",
        )
        assert code == 0
        assert "verdict=certified" in out

    def test_certify_flag_on_an_even_link(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "construct", "--c", "4", "--n", "2", "--m", "1",
            "--family", "clique-plus", "--out", str(tmp_path / "col.txt"), "--certify",
        )
        assert code == 0
        assert "r=8 verdict=certified" in out

    def test_construct_rejects_empty_family_params(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "construct", "--c", "3", "--n", "0", "--m", "0",
            "--family", "clique-plus", "--out", str(tmp_path / "x.txt"),
        )
        assert code == 1 and "error" in err

    def test_construct_unwritable_path(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "construct", "--c", "3", "--n", "2", "--m", "1",
            "--family", "two-cliques", "--out", str(tmp_path / "no-dir" / "x.txt"),
        )
        assert code == 3 and "error" in err

    def test_detect_verify_round_trip(self, capsys, tmp_path):
        col_file = tmp_path / "allred.txt"
        write_all_red(col_file, 6)
        base = ("--c", "3", "--n", "2", "--m", "1")
        code, out, _ = invoke(capsys, "detect", *base, "--coloring", str(col_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["color"] == "red"
        wit_file = tmp_path / "wit.json"
        wit_file.write_text(out, encoding="ascii")
        code, out, _ = invoke(
            capsys, "verify", *base, "--coloring", str(col_file), "--witness", str(wit_file),
        )
        assert code == 0 and out == "valid\n"
        # a wrong-color claim is refuted, not an error
        doc["color"] = "blue"
        wit_file.write_text(json.dumps(doc), encoding="ascii")
        code, out, _ = invoke(
            capsys, "verify", *base, "--coloring", str(col_file), "--witness", str(wit_file),
        )
        assert code == 0 and out == "invalid\n"

    def test_verify_out_of_range_witness_is_invalid(self, capsys, tmp_path):
        col_file = tmp_path / "allred.txt"
        write_all_red(col_file, 6)
        wit_file = tmp_path / "wit.json"
        wit_file.write_text(
            json.dumps({"color": "red", "path": [0, 2, 9], "n_leaves": [3, 4], "m_leaves": [5]}),
            encoding="ascii",
        )
        code, out, _ = invoke(
            capsys, "verify", "--c", "3", "--n", "2", "--m", "1",
            "--coloring", str(col_file), "--witness", str(wit_file),
        )
        assert code == 0 and out == "invalid\n"


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1 and "usage error" in err

    def test_missing_argument(self, capsys):
        code, _, err = invoke(capsys, "bound", "--c", "3", "--n", "1")
        assert code == 1 and "usage error" in err

    def test_non_integer_argument(self, capsys):
        code, _, err = invoke(capsys, "bound", "--c", "x", "--n", "1", "--m", "1")
        assert code == 1 and "usage error" in err

    def test_malformed_coloring_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("r=3\nRRQ\n", encoding="ascii")
        code, _, err = invoke(
            capsys, "detect", "--c", "3", "--n", "1", "--m", "1", "--coloring", str(bad),
        )
        assert code == 3 and "error" in err

    @pytest.mark.parametrize("role", ["coloring", "witness"])
    def test_non_ascii_input_file(self, capsys, tmp_path, role):
        files = {"coloring": tmp_path / "allred.txt", "witness": tmp_path / "wit.json"}
        write_all_red(files["coloring"], 6)
        files["witness"].write_text(json.dumps({"color": "red"}), encoding="ascii")
        files[role].write_bytes(files[role].read_bytes() + "\u00e9".encode())
        code, _, err = invoke(
            capsys, "verify", "--c", "3", "--n", "2", "--m", "1",
            "--coloring", str(files["coloring"]), "--witness", str(files["witness"]),
        )
        assert code == 3 and "error" in err

    def test_missing_coloring_file(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "detect", "--c", "3", "--n", "1", "--m", "1",
            "--coloring", str(tmp_path / "absent.txt"),
        )
        assert code == 3 and "error" in err

    def test_incomplete_coloring(self, capsys, tmp_path):
        partial = tmp_path / "partial.txt"
        partial.write_text("r=3\nRRU\n", encoding="ascii")
        code, _, err = invoke(
            capsys, "detect", "--c", "3", "--n", "1", "--m", "1", "--coloring", str(partial),
        )
        assert code == 1 and "error" in err

    def test_unparseable_witness_json(self, capsys, tmp_path):
        col_file = tmp_path / "allred.txt"
        write_all_red(col_file, 6)
        wit_file = tmp_path / "wit.json"
        wit_file.write_text("{not json", encoding="ascii")
        code, _, _ = invoke(
            capsys, "verify", "--c", "3", "--n", "2", "--m", "1",
            "--coloring", str(col_file), "--witness", str(wit_file),
        )
        assert code == 3

    def test_wrong_shape_witness_document(self, capsys, tmp_path):
        # valid JSON that is not a witness is a parse failure of an input file
        col_file = tmp_path / "allred.txt"
        write_all_red(col_file, 6)
        wit_file = tmp_path / "wit.json"
        for doc in (
            {"color": "red"},
            {"color": "red", "path": "021", "n_leaves": [3, 4], "m_leaves": [5]},
        ):
            wit_file.write_text(json.dumps(doc), encoding="ascii")
            code, out, err = invoke(
                capsys, "verify", "--c", "3", "--n", "2", "--m", "1",
                "--coloring", str(col_file), "--witness", str(wit_file),
            )
            assert code == 3
            assert out == ""
            assert "malformed witness" in err


class TestSearchCommand:
    def test_exact(self, capsys):
        code, out, _ = invoke(capsys, "search", "--c", "3", "--n", "1", "--m", "1")
        assert code == 0
        assert out.startswith("exact=6 nodes=")

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "search", "--c", "3", "--n", "1", "--m", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == {"kind": "exact", "value": 6}
        assert doc["limit_hit"] is False

    def test_window_below_the_value(self, capsys):
        code, out, _ = invoke(
            capsys, "search", "--c", "3", "--n", "1", "--m", "1", "--r-lo", "2", "--r-hi", "4",
        )
        assert code == 0
        assert out == "interval=[5,5] (hi uncertified) nodes=10\n"

    def test_node_limit_exit(self, capsys):
        code, out, _ = invoke(
            capsys, "search", "--c", "3", "--n", "1", "--m", "1",
            "--r-lo", "6", "--r-hi", "6", "--node-limit", "5",
        )
        assert code == 2
        assert "limit-hit" in out

    def test_bad_window(self, capsys):
        code, _, err = invoke(
            capsys, "search", "--c", "3", "--n", "1", "--m", "1", "--r-lo", "5", "--r-hi", "4",
        )
        assert code == 1 and "error" in err


class TestSatExport:
    def test_writes_instance(self, capsys, tmp_path):
        out_file = tmp_path / "inst.cnf"
        code, out, _ = invoke(
            capsys, "sat-export", "--c", "3", "--n", "1", "--m", "1",
            "--r", "5", "--out", str(out_file),
        )
        assert code == 0
        assert f"wrote {out_file} vars=10 clauses=120" in out
        n_vars, clauses = parse_dimacs(out_file.read_text(encoding="ascii"))
        assert n_vars == 10 and len(clauses) == 120

    def test_embedding_cap_exit(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "sat-export", "--c", "3", "--n", "1", "--m", "1",
            "--r", "40", "--out", str(tmp_path / "big.cnf"),
        )
        assert code == 2 and "error" in err
        assert not (tmp_path / "big.cnf").exists()

    def test_file_matches_export_dimacs(self, capsys, tmp_path):
        out_file = tmp_path / "s332.cnf"
        code, out, _ = invoke(
            capsys, "sat-export", "--c", "3", "--n", "3", "--m", "2",
            "--r", "8", "--out", str(out_file),
        )
        assert code == 0
        assert f"wrote {out_file} vars=28 clauses=6720" in out
        assert out_file.read_bytes() == export_dimacs(LdsParams(3, 3, 2), 8).encode("ascii")


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--c", "3", "--n", "2", "--m", "1", "--json"),
        ("search", "--c", "1", "--n", "1", "--m", "1", "--json"),
        ("detect", "--c", "3", "--n", "2", "--m", "1", "--coloring", "COL", "--json"),
        ("verify", "--c", "3", "--n", "2", "--m", "1",
         "--coloring", "COL", "--witness", "WIT", "--json"),
        ("construct", "--c", "3", "--n", "2", "--m", "1",
         "--family", "two-cliques", "--out", "OUT", "--certify", "--json"),
        ("sat-export", "--c", "3", "--n", "1", "--m", "1", "--r", "5", "--out", "OUT", "--json"),
    ],
)
def test_json_mode_emits_one_document(capsys, tmp_path, argv):
    col_file = tmp_path / "allred.txt"
    write_all_red(col_file, 6)
    wit_file = tmp_path / "wit.json"
    wit_file.write_text(
        json.dumps({"color": "red", "path": [0, 2, 1], "n_leaves": [3, 4], "m_leaves": [5]}),
        encoding="ascii",
    )
    fills = {"COL": str(col_file), "WIT": str(wit_file), "OUT": str(tmp_path / "out.txt")}
    code = main([fills.get(tok, tok) for tok in argv])
    out = capsys.readouterr().out
    assert code == 0
    json.loads(out)


def test_construct_help_lists_the_families(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--help"])
    assert exc.value.code == 0
    assert "--family {clique-plus,two-cliques}" in capsys.readouterr().out


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestPythonLimits:
    """Python's recursion and memory limits end in an exit code, never a traceback."""

    def test_search_deeper_than_the_recursion_limit(self, capsys):
        # r-lo is 62: K_62 has 1,891 edge slots, past the default limit of
        # 1000, but the DFS is one loop, so only the node budget stops it
        code, out, err = invoke(
            capsys, "search", "--c", "2", "--n", "20", "--m", "20", "--node-limit", "5000",
        )
        assert (code, err) == (2, "")
        assert out == (
            "indeterminate: node limit 5000 reached before any probe of [62, 72] concluded"
            " nodes=5001 limit-hit\n"
        )

    def test_detector_path_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # the path walk recurses once per link vertex; a lowered limit
        # stands in for a K_1100 under the default one
        col_file = tmp_path / "allred.txt"
        write_all_red(col_file, 300)
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 150)
        try:
            code, out, err = invoke(
                capsys, "detect", "--c", "300", "--n", "0", "--m", "0", "--coloring", str(col_file),
            )
        finally:
            sys.setrecursionlimit(before)
        assert code == 2 and out == ""
        assert err.startswith("error: maximum recursion depth") and err.count("\n") == 1

    def test_deeply_nested_witness_is_a_parse_failure(self, capsys, tmp_path):
        col_file = tmp_path / "allred.txt"
        write_all_red(col_file, 6)
        wit_file = tmp_path / "wit.json"
        wit_file.write_text("[" * 100_000, encoding="ascii")
        code, out, err = invoke(
            capsys, "verify", "--c", "3", "--n", "2", "--m", "1",
            "--coloring", str(col_file), "--witness", str(wit_file),
        )
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_vertex_count_beyond_memory(self, capsys):
        # K_{10^8} asks for a 5*10^15-byte slot array, which fails at once
        code, out, err = invoke(capsys, "search", "--c", "3", "--n", "1", "--m", "1", "--r-lo", "99999999")
        assert code == 2 and out == ""
        assert err == "error: out of memory\n"
