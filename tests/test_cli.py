import io
import json
import sys

import pytest

from locdom.cli import main


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_l_text(capsys):
    code, out, err = run(capsys, ["gamma-l", "--family", "cycle:7"])
    assert code == 0
    assert out == "gamma_l = 3\nwitness = {0, 2, 4}\n"
    assert err == ""


def test_gamma_l_json(capsys):
    code, out, _ = run(capsys, ["gamma-l", "--family", "complete:4", "--json"])
    assert code == 0
    assert json.loads(out) == {"schema_version": 1, "gamma_l": 3, "witness": [0, 1, 2]}


def test_gamma_l_stdin_graph6(capsys, monkeypatch):
    code, out, _ = run(capsys, ["gamma-l"], stdin="D?{", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "gamma_l = 4\nwitness = {0, 1, 2, 3}\n"


def test_cl_full_solve(capsys):
    code, out, _ = run(capsys, ["cl", "--family", "path:5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["c_l"] == 4
    assert doc["parts"] == [[0, 2], [1], [3], [4]]
    assert doc["partners"] == [2, 2, 0, 0]
    assert doc["status"] == "exact"


def test_cl_tiny_graph(capsys):
    code, out, _ = run(capsys, ["cl", "--family", "complete:2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["c_l"] == "none"
    assert doc["status"] == "none"
    assert doc["parts"] is None


def test_cl_at_least_decision(capsys):
    code, out, _ = run(capsys, ["cl", "--family", "cycle:6", "--at-least", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "exact"
    assert doc["c_l"] == 5
    assert doc["bounds_used"] == [["at_least", 5]]

    code, out, _ = run(capsys, ["cl", "--family", "cycle:8", "--at-least", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "none"
    assert doc["c_l"] is None

    # no 2-part partition exists, yet C_L >= 2: the answer is a larger one
    for family, c_l in (("path:3", 3), ("cycle:5", 5)):
        code, out, _ = run(capsys, ["cl", "--family", family, "--at-least", "2"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["status"], doc["c_l"]) == ("exact", c_l)
        assert doc["bounds_used"] == [["at_least", 2]]


def test_cl_at_least_reports_its_search(capsys):
    code, out, _ = run(capsys, ["cl", "--family", "path:14", "--at-least", "6"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["status"], doc["c_l"]) == ("none", None)
    assert doc["nodes_explored"] > 0


def test_cl_at_least_rejects_k_below_one(capsys):
    code, out, err = run(capsys, ["cl", "--family", "cycle:6", "--at-least", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_cl_budget_inconclusive(capsys):
    code, out, _ = run(
        capsys,
        ["cl", "--family", "path:18", "--at-least", "6", "--budget-seconds", "0.05"],
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["status"] == "inconclusive"
    assert doc["nodes_explored"] > 0


def test_cl_node_budget_equal_to_the_count_settles(capsys):
    _, out, _ = run(capsys, ["cl", "--family", "cycle:10"])
    nodes = json.loads(out)["nodes_explored"]
    code, out, _ = run(
        capsys, ["cl", "--family", "cycle:10", "--budget-nodes", str(nodes)]
    )
    assert code == 0
    assert json.loads(out)["c_l"] == 5


def test_budget_env_default(capsys, monkeypatch):
    monkeypatch.setenv("LDC_BUDGET_SECONDS", "0.05")
    code, out, _ = run(capsys, ["cl", "--family", "path:18", "--at-least", "6"])
    assert code == 4
    assert json.loads(out)["status"] == "inconclusive"


def test_budget_env_malformed(capsys, monkeypatch):
    # only the subcommands that take a budget parse the variable, and the
    # error names the variable, not the flag
    monkeypatch.setenv("LDC_BUDGET_SECONDS", "abc")
    code, out, _ = run(capsys, ["gamma-l", "--family", "path:5"])
    assert (code, out.splitlines()[0]) == (0, "gamma_l = 2")
    for argv in (["cl", "--family", "path:5"], ["reproduce", "--only", "paths"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "LDC_BUDGET_SECONDS" in err and "--budget-seconds" not in err
    with pytest.raises(SystemExit) as info:
        main(["cl", "--family", "path:5", "--budget-seconds", "abc"])
    assert info.value.code == 2
    assert "--budget-seconds" in capsys.readouterr().err
    monkeypatch.setenv("LDC_BUDGET_SECONDS", "")
    code, out, _ = run(capsys, ["cl", "--family", "path:5"])
    assert (code, json.loads(out)["c_l"]) == (0, 4)


@pytest.mark.parametrize(
    "budget",
    [
        ["--budget-seconds", "nan"],
        ["--budget-seconds", "inf"],
        ["--budget-seconds", "-1"],
        ["--budget-nodes", "0"],
    ],
    ids=["nan", "inf", "negative", "zero-nodes"],
)
@pytest.mark.parametrize(
    "command",
    [["cl", "--family", "path:5"], ["reproduce", "--only", "paths-cl"]],
    ids=["cl", "reproduce"],
)
def test_budget_rejected(capsys, monkeypatch, command, budget):
    code, out, err = run(capsys, command + budget)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + budget[0])
    if budget[0] == "--budget-seconds":
        monkeypatch.setenv("LDC_BUDGET_SECONDS", budget[1])
        code, out, err = run(capsys, command)
        assert (code, out) == (2, "")
        assert err.startswith("error: LDC_BUDGET_SECONDS")


def test_cl_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["cl", "--family", "path:5", "--output", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["c_l"] == 4
    assert json.loads(out) == doc


def test_gamma_l_output_keeps_the_text(capsys, tmp_path):
    target = tmp_path / "g.json"
    code, out, _ = run(
        capsys, ["gamma-l", "--family", "path:5", "--output", str(target)]
    )
    assert code == 0
    assert out == "gamma_l = 2\nwitness = {1, 3}\n"
    assert target.read_text() == (
        '{\n  "schema_version": 1,\n  "gamma_l": 2,\n'
        '  "witness": [\n    1,\n    3\n  ]\n}\n'
    )


def test_gamma_l_json_output_matches_stdout(capsys, tmp_path):
    target = tmp_path / "g.json"
    argv = ["gamma-l", "--family", "cycle:7", "--json", "--output", str(target)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == target.read_text()
    assert json.loads(out) == {"schema_version": 1, "gamma_l": 3, "witness": [0, 2, 4]}


def test_check_partition_valid(capsys, tmp_path):
    pfile = tmp_path / "p6.txt"
    pfile.write_text("# parts\n1 3\n0 2\n4\n5\n")
    code, out, err = run(capsys, ["check-partition", "--family", "path:6", str(pfile)])
    assert code == 0
    assert out == (
        "valid LDC-partition with 4 parts\n"
        "part 0 partners part 2\n"
        "part 1 partners part 2\n"
        "part 2 partners part 0\n"
        "part 3 partners part 0\n"
    )


def test_check_partition_json(capsys, tmp_path):
    pfile = tmp_path / "p6.txt"
    pfile.write_text("1 3\n0 2\n4\n5\n")
    code, out, _ = run(
        capsys, ["check-partition", "--family", "path:6", str(pfile), "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "schema_version": 1,
        "valid": True,
        "parts": [[1, 3], [0, 2], [4], [5]],
        "partners": [2, 2, 0, 0],
    }


def test_check_partition_output_keeps_the_text(capsys, tmp_path):
    pfile = tmp_path / "k3.txt"
    pfile.write_text("0 1\n2\n")
    target = tmp_path / "verdict.json"
    code, out, _ = run(
        capsys,
        ["check-partition", "--family", "cycle:3", str(pfile), "--output", str(target)],
    )
    assert code == 1
    assert out == "invalid: part 0 is an LD-set\n"
    assert json.loads(target.read_text()) == {
        "schema_version": 1,
        "valid": False,
        "part_index": 0,
        "reason": "part 0 is an LD-set",
    }


def test_check_partition_rejects_ld_part(capsys, tmp_path):
    pfile = tmp_path / "k3.txt"
    pfile.write_text("0 1\n2\n")
    code, out, _ = run(capsys, ["check-partition", "--family", "cycle:3", str(pfile)])
    assert code == 1
    assert out == "invalid: part 0 is an LD-set\n"


def test_check_partition_malformed(capsys, tmp_path):
    pfile = tmp_path / "bad.txt"
    pfile.write_text("0 x\n1 2\n")
    code, _, err = run(capsys, ["check-partition", "--family", "cycle:3", str(pfile)])
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("vertex", ["100000000", "-1"])
def test_check_partition_vertex_out_of_range(capsys, tmp_path, vertex):
    pfile = tmp_path / "bad.txt"
    pfile.write_text(f"0 1\n2 {vertex}\n3 4\n")
    code, _, err = run(capsys, ["check-partition", "--family", "path:5", str(pfile)])
    assert code == 2
    assert err == f"error: part 1 has vertex {vertex}, outside 0..4\n"


def test_coalition_graph_dot(capsys, tmp_path):
    pfile = tmp_path / "s3.txt"
    pfile.write_text("0\n1\n2\n")
    code, out, _ = run(capsys, ["coalition-graph", "--family", "cycle:3", str(pfile)])
    assert code == 0
    assert out == (
        "graph coalition {\n"
        '  p0 [label="{0}"];\n'
        '  p1 [label="{1}"];\n'
        '  p2 [label="{2}"];\n'
        "  p0 -- p1;\n"
        "  p0 -- p2;\n"
        "  p1 -- p2;\n"
        "}\n"
    )


def test_coalition_graph_rejects_invalid(capsys, tmp_path):
    pfile = tmp_path / "orph.txt"
    pfile.write_text("0\n1\n2\n3\n4\n")
    code, _, err = run(capsys, ["coalition-graph", "--family", "path:5", str(pfile)])
    assert code == 1
    assert "no LD-coalition partner" in err


def test_disconnected_exit_code(capsys, tmp_path):
    gfile = tmp_path / "disc.txt"
    gfile.write_text("4\n0 1\n2 3\n")
    # 2K_2: a disconnected graph is solved like any other, with exit 0
    code, out, err = run(capsys, ["gamma-l", "--file", str(gfile)])
    assert (code, out, err) == (0, "gamma_l = 2\nwitness = {0, 2}\n", "")
    code, out, _ = run(capsys, ["cl", "--file", str(gfile)])
    assert code == 0
    doc = json.loads(out)
    assert (doc["c_l"], doc["status"]) == (4, "exact")


def test_parse_error_exit_code(capsys, monkeypatch):
    code, _, err = run(
        capsys, ["gamma-l"], stdin="not a graph Z", monkeypatch=monkeypatch
    )
    assert code == 2
    assert err.startswith("error:")


def test_both_sources_rejected(capsys, tmp_path):
    gfile = tmp_path / "g.txt"
    gfile.write_text("0 1\n")
    code, _, err = run(
        capsys, ["gamma-l", "--family", "path:3", "--file", str(gfile)]
    )
    assert code == 2
    assert "exactly one input source" in err


def test_reproduce_tsv(capsys):
    code, out, _ = run(capsys, ["reproduce", "--only", "census-order5-gamma2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "claim\tstatus\telapsed_ms"
    assert lines[1].startswith("census-order5-gamma2\tpass\t")
    assert lines[-1].startswith("overall\tpass\t")


def test_reproduce_json_and_output(capsys, tmp_path):
    target = tmp_path / "rep.json"
    code, out, _ = run(
        capsys,
        ["reproduce", "--only", "census-order5-gamma2", "--output", str(target)],
    )
    assert code == 0
    assert out.startswith("claim\t")
    doc = json.loads(target.read_text())
    assert doc["overall_pass"] is True

    code2, out2, _ = run(
        capsys, ["reproduce", "--only", "census-order5-gamma2", "--json"]
    )
    assert code2 == 0
    assert json.loads(out2)["schema_version"] == 1


def test_reproduce_unknown_claim(capsys):
    code, _, err = run(capsys, ["reproduce", "--only", "nosuchclaim"])
    assert code == 2
    assert "no claims match" in err


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out == "locdom 0.1.0\n"
