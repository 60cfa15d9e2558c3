"""Command-line surface: output contracts and exit codes, in process."""

import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import arq2d.cli
from arq2d.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_square_contract_string(self, capsys, square_path):
        code, out, _ = run(capsys, "classify", square_path)
        assert code == 0
        assert out.strip() == '{"tag":"TwoDomestic","p":2,"q":2,"n":4}'

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "/no/such/file.json")
        assert code == 1
        assert err

    def test_malformed_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": []}')
        code, _, err = run(capsys, "classify", str(bad))
        assert code == 1

    def test_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"vertices": []}')
        code, _, err = run(capsys, "classify", str(bad))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1


class TestAlgebra:
    def test_dot_output(self, capsys, square_path):
        code, out, _ = run(capsys, "algebra", square_path)
        assert code == 0
        assert out.startswith("digraph quiver {")
        assert out.rstrip().endswith("}")

    def test_json_output(self, capsys, square_path):
        code, out, _ = run(capsys, "algebra", square_path, "--emit", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 4
        assert len(doc["arrows"]) == 8
        rel = doc["relations"]
        assert set(rel) == {"typeI", "typeII", "typeIII"}
        assert (len(rel["typeI"]), len(rel["typeII"]),
                len(rel["typeIII"])) == (4, 8, 8)


class TestSupports:
    def test_rows_per_vertex(self, capsys):
        code, out, _ = run(capsys, "supports", "--p", "3", "--q", "3",
                           "--set", "E(0,1,0);TU(1,0,0)")
        assert code == 0
        doc = json.loads(out)
        assert [row["vertex"] for row in doc] == ["E(0,1,0)", "TU(1,0,0)"]
        for row in doc:
            assert set(row) == {"vertex", "rsupp", "lsupp"}

    def test_requires_params(self, capsys):
        code, _, err = run(capsys, "supports", "--set", "E(0,1,0)")
        assert code == 1

    def test_bad_vertex_syntax(self, capsys):
        code, _, err = run(capsys, "supports", "--p", "2", "--q", "2",
                           "--set", "E(0,1)")
        assert code == 1


class TestBiperp:
    def test_example_window_members(self, capsys):
        code, out, _ = run(capsys, "biperp", "--p", "3", "--q", "3",
                           "--set", "E(0,1,0)")
        assert code == 0
        doc = json.loads(out)
        assert doc["set"] == ["E(0,1,0)"]
        e0 = doc["windowMembers"]["e0"]
        assert sorted(e0) == ["E(0,-1,1)", "E(0,-1,2)", "E(0,0,1)",
                              "E(0,0,2)"]
        assert len(e0) == 4
        assert len(doc["windowMembers"]["e1"]) == 9

    def test_inline_json_set(self, capsys):
        code, out, _ = run(capsys, "biperp", "--p", "2", "--q", "2",
                           "--set", '["E(0,0,0)", "E(0,1,1)"]')
        assert code == 0
        doc = json.loads(out)
        assert doc["set"] == ["E(0,0,0)", "E(0,1,1)"]



class TestRegionJsonPins:
    """SHA-256 of the stdout of supports and biperp --window 1 at (3, 4),
    compact and --pretty, for a tube brick, a tube above the brick cap and
    a tube-only pair: the region JSON these print stays byte for byte."""

    @pytest.mark.parametrize("command,members,digest,pretty_digest", [
        ("supports", "TU(1,2,1)",
         "670db36c5eb80d72355ed640d85c70acd3b5b22e5286138a24a70298de2379ce",
         "dd6dcde91861a05cf9c55d41186df7bc4dcb4ed158793e19e0d7ad4c156ff4a9"),
        ("supports", "TP(0,1,2)",
         "d293ce87876549975f716f63fe599953e4bd3774764c597993b9d74cec5648a2",
         "0fb7ed8751f5d27ea07ff8e1fab432316cd2fcc740086369568a52a84b1dac61"),
        ("supports", "TU(0,0,0);TP(1,2,1)",
         "784157464e1398891fc1b6af37119e50b1a282e6f634275bd3d8ad21fbbdec12",
         "a5fcd9594007ece269d2d6fda9cee531b6f7f41701d4dc921f9a6bd7d8959cda"),
        ("biperp", "TU(1,2,1)",
         "055c3f6e6e8ab3af8ca925e7f78b0c86872d3452fbc039220b18fbfb82010610",
         "d0e194c5e253c26da2c43e5b9e6065b94d147704083d998501299b22f0ddfb93"),
        ("biperp", "TP(0,1,2)",
         "5099ba46a5a00a649ed38a4c17b1691a41979f5f2242851e21344df3d925068f",
         "b09dcb75e17cdb76b3e448ba86a3a20fcfdc139191452586476abe1fdee3f1ad"),
        ("biperp", "TU(0,0,0);TP(1,2,1)",
         "f7060dda1ea2cd7ab125ba0b240ede2ffdbd0cf4eb91b84dd0fafa02c9463116",
         "e3a04f71fa79556db3a878ffe8f4ed3d82957b569503106160da27d7691ca8a2"),
    ])
    def test_stdout_digest(self, capsys, command, members, digest,
                           pretty_digest):
        argv = [command, "--p", "3", "--q", "4", "--set", members]
        if command == "biperp":
            argv += ["--window", "1"]
        for extra, want in (((), digest), (("--pretty",), pretty_digest)):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want

class TestEnumerateMax:
    def test_counts_at_two_two(self, capsys):
        code, out, _ = run(capsys, "enumerate-max", "--p", "2", "--q", "2",
                           "--set", "E(0,1,0)")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 5
        assert doc["byCardinality"] == {"4": 5}
        assert len(doc["systems"]) == 5
        assert all("E(0,1,0)" in s for s in doc["systems"])

    def test_parts_restriction(self, capsys):
        code, out, _ = run(capsys, "enumerate-max", "--p", "3", "--q", "3",
                           "--set", "E(0,1,0)", "--parts", "e0,e1")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 15
        assert doc["byCardinality"] == {"2": 2, "4": 12, "6": 1}

    def test_unknown_part_is_domain_error(self, capsys):
        code, out, err = run(capsys, "enumerate-max", "--p", "2", "--q", "2",
                             "--set", "E(0,1,0)", "--parts", "e0,zz")
        assert code == 1
        assert out == ""
        assert "zz" in err and "e0, e1, u0, u1, p0, p1" in err

    @pytest.mark.parametrize("parts", ["", ",", "e0,"])
    def test_empty_part_name_is_domain_error(self, capsys, parts):
        code, out, err = run(capsys, "enumerate-max", "--p", "2", "--q", "2",
                             "--set", "E(0,1,0)", "--parts", parts)
        assert code == 1 and out == ""
        assert err == ("error: --parts takes a comma list of part names "
                       "(got %r)\n" % parts)

    def test_tube_only_seed_is_domain_error(self, capsys):
        code, _, err = run(capsys, "enumerate-max", "--p", "2", "--q", "2",
                           "--set", "TU(0,0,0)")
        assert code == 1


class TestCertifySms:
    SET = "E(0,1,0);E(0,0,1);E(0,-1,2);E(1,1,1);E(1,0,2);E(1,-1,3)"

    def test_flagship_certifies(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code, out, _ = run(capsys, "certify-sms", "--p", "3", "--q", "3",
                           "--set", self.SET, "--trace", str(trace_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is True
        assert doc["maximal"] is True
        assert doc["corollary"] == ("extension closure of the certified "
                                    "system is functorially finite")
        assert "trace" not in doc and "window" not in doc
        lines = trace_path.read_text().splitlines()
        assert len(lines) == doc["derived"] - 6
        assert all(set(json.loads(l)) == {"rule", "triangle", "produced"}
                   for l in lines[:5])

    def test_non_maximal_set(self, capsys):
        code, out, _ = run(capsys, "certify-sms", "--p", "3", "--q", "3",
                           "--set", "E(0,1,0)")
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is False
        assert doc["maximal"] is False
        assert "corollary" not in doc

    def test_non_orthogonal_set_is_domain_error(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code, out, err = run(capsys, "certify-sms", "--p", "3", "--q", "3",
                             "--set", self.SET + ";E(0,1,1)",
                             "--trace", str(trace_path))
        assert code == 1 and out == ""
        assert err == "error: set is not an orthogonal system of bricks\n"
        assert not trace_path.exists()


class TestSetInput:
    def test_json_file_matches_inline_list(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(TestCertifySms.SET.split(";")))
        inline = run(capsys, "certify-sms", "--p", "3", "--q", "3",
                     "--set", TestCertifySms.SET)
        from_file = run(capsys, "certify-sms", "--p", "3", "--q", "3",
                        "--set", str(path))
        assert inline[0] == 0
        assert from_file == inline

    def test_invalid_json_is_domain_error(self, capsys):
        code, out, err = run(capsys, "biperp", "--p", "2", "--q", "2",
                             "--set", "[bad")
        assert code == 1 and out == ""
        assert err.startswith("error: invalid JSON input: ")
        assert err.count("\n") == 1

    def test_json_object_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text('{"set": ["E(0,0,0)"]}')
        code, out, err = run(capsys, "biperp", "--p", "2", "--q", "2",
                             "--set", str(path))
        assert code == 1 and out == ""
        assert err == "error: vertex sets are JSON arrays of vertex strings\n"


@pytest.mark.parametrize("window", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["biperp", "--p", "1", "--q", "1", "--set", "E(0,0,0)"],
    ["render", "e0", "--p", "3", "--q", "3"],
    ["certify-sms", "--p", "3", "--q", "3", "--set", TestCertifySms.SET],
], ids=lambda argv: argv[0])
def test_window_below_one_is_domain_error(capsys, command, window):
    code, out, err = run(capsys, *command, "--window", window)
    assert code == 1 and out == ""
    assert err == "error: --window must be at least 1 (got %s)\n" % window


@pytest.mark.parametrize("pq", [("101", "3"), ("3", "101")])
@pytest.mark.parametrize("command", [
    ["supports", "--set", "E(0,0,0)"],
    ["biperp", "--set", "E(0,0,0)"],
    ["enumerate-max", "--set", "E(0,1,0)"],
    ["render", "e0"],
    ["certify-sms", "--set", TestCertifySms.SET],
], ids=lambda argv: argv[0])
def test_p_q_above_limit_is_domain_error(capsys, command, pq):
    code, out, err = run(capsys, *command, "--p", pq[0], "--q", pq[1])
    assert code == 1 and out == ""
    assert err == "error: --p and --q must be at most 100 (got %s, %s)\n" % pq


def test_p_q_at_limit_accepted(capsys):
    code, out, _ = run(capsys, "biperp", "--p", "100", "--q", "1",
                       "--set", "E(0,0,0)")
    assert code == 0 and out


@pytest.mark.parametrize("command", [
    ["biperp", "--p", "1", "--q", "1", "--set", "E(0,0,0)"],
    ["render", "e0", "--p", "3", "--q", "3"],
    ["certify-sms", "--p", "3", "--q", "3", "--set", TestCertifySms.SET],
], ids=lambda argv: argv[0])
def test_window_above_limit_is_domain_error(capsys, command):
    code, out, err = run(capsys, *command, "--window", "17")
    assert code == 1 and out == ""
    assert err == "error: --window must be at most 16 (got 17)\n"


@pytest.mark.parametrize("command", [
    ["biperp", "--set", "E(0,0,0)"],
    ["render", "e0"],
    ["certify-sms", "--set", "E(0,0,0)"],
], ids=lambda argv: argv[0])
def test_window_box_above_limit_is_domain_error(capsys, command):
    # 16 * 16 * 10 * 10 = 25,600 > 100 * 100
    code, out, err = run(capsys, *command, "--p", "10", "--q", "10",
                         "--window", "16")
    assert code == 1 and out == ""
    assert err == ("error: --window N needs N*N*p*q at most 10000 "
                   "(got N = 16, p = 10, q = 10)\n")


def test_window_box_at_limit_accepted(capsys):
    code, out, _ = run(capsys, "biperp", "--p", "10", "--q", "10",
                       "--set", "E(0,0,0)", "--window", "10")
    assert code == 0 and out


@pytest.mark.parametrize("command", [
    ["supports", "--p", "3", "--q", "3", "--set", "E(0,0,0)"],
    ["enumerate-max", "--p", "3", "--q", "3", "--set", "E(0,1,0)"],
], ids=lambda argv: argv[0])
def test_window_is_usage_error_where_unused(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *command, "--window", "0")
    assert exc.value.code == 2
    assert "--window" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["biperp", "--p", "2", "--q", "2", "--set", "E(0,0,0)"],
    ["render", "e0", "--p", "2", "--q", "2", "--emit", "json"],
    ["certify-sms", "--p", "2", "--q", "2", "--set", "E(0,0,0)"],
], ids=lambda argv: argv[0])
def test_window_accepted_where_used(capsys, command):
    code, out, _ = run(capsys, *command, "--window", "2")
    assert code == 0 and out


def test_closed_stdout_exits_quietly():
    """A reader that stops early, as `| head -c 10` does, gets no error
    message, and the exit code is 128 + SIGPIPE, not the domain-error 1."""
    src = os.path.dirname(os.path.dirname(arq2d.cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "arq2d.cli", "enumerate-max", "--p", "5",
         "--q", "5", "--set", "E(0,1,0)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    # the (5,5) output is about 0.5 MB, far more than a pipe holds
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


class TestOracleCheck:
    def test_exit_three_with_one_honest_failure(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--emit", "json")
        assert code == 3
        rows = json.loads(out)
        fails = [r for r in rows if not r["pass"]]
        assert len(fails) == 1
        assert len(rows) == 27

    def test_text_lines(self, capsys):
        code, out, _ = run(capsys, "oracle-check")
        assert code == 3
        lines = out.strip().splitlines()
        assert len(lines) == 27
        assert sum(1 for l in lines if l.startswith("FAIL")) == 1
        assert sum(1 for l in lines if l.startswith("PASS")) == 26


class TestRender:
    def test_svg(self, capsys):
        code, out, _ = run(capsys, "render", "e0", "--p", "3", "--q", "3",
                           "--emit", "svg")
        assert code == 0
        ET.fromstring(out)

    def test_json_layout_with_highlight(self, capsys):
        code, out, _ = run(capsys, "render", "u0", "--p", "3", "--q", "3",
                           "--set", "TU(0,1,0)", "--emit", "json")
        assert code == 0
        doc = json.loads(out)
        assert any(n["highlight"] == "set" for n in doc["nodes"])

    @pytest.mark.parametrize("emit,colour,fill", [
        ("dot", None, 'style=filled, fillcolor="#d62728"'),
        ("tikz", "\\definecolor{hl0}{HTML}{D62728}", "[fill=hl0!60]"),
    ])
    def test_highlight_fills(self, capsys, emit, colour, fill):
        code, out, _ = run(capsys, "render", "u0", "--p", "3", "--q", "3",
                           "--set", "TU(0,1,0);TU(0,2,1)", "--emit", emit)
        assert code == 0
        lines = out.splitlines()
        assert sum(fill in l for l in lines) == 2
        assert colour is None or lines.count(colour) == 1

    def test_unknown_part_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "render", "zz", "--p", "3", "--q", "3")
        assert exc.value.code == 2

    def test_highlight_outside_part_is_domain_error(self, capsys):
        code, _, err = run(capsys, "render", "e0", "--p", "3", "--q", "3",
                           "--set", "TU(0,0,0)")
        assert code == 1


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
