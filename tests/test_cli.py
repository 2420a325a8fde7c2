"""CLI behavior: canonical JSON piping, report modes, exit codes."""

import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nilbij
from conftest import GF2, GF4
from nilbij import CensusReport, FieldSpec, Matrix, NilpotentPair, Vector
from nilbij.cli import canonical_dumps, main
from nilbij.field import _tabulated


def run(args, stdin_text=""):
    """Run the CLI in process; ``stdin_text`` is a string or a text stream."""
    stdin = io.StringIO(stdin_text) if isinstance(stdin_text, str) else stdin_text
    out, err = io.StringIO(), io.StringIO()
    code = main(args, stdin=stdin, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def pair_doc(t, v):
    return canonical_dumps(NilpotentPair(t, v).to_json())


def test_forward_matches_hand_trace():
    doc = pair_doc(Matrix.from_rows(GF2, [(0, 0), (1, 0)]), Vector(GF2, (1, 0)))
    code, out, err = run(["forward"], doc)
    assert code == 0 and err == ""
    assert json.loads(out) == Matrix.identity(GF2, 2).to_json()
    assert out.endswith("\n")


def test_forward_inverse_pipe_is_byte_identical():
    docs = [
        pair_doc(Matrix.from_rows(GF2, [(0, 0), (1, 0)]), Vector(GF2, (1, 1))),
        pair_doc(Matrix.zero(GF2, 2, 2), Vector(GF2, (0, 1))),
        pair_doc(Matrix.from_rows(GF4, [(0, 3), (0, 0)]), Vector(GF4, (2, 1))),
    ]
    for doc in docs:
        code, q_doc, _ = run(["forward"], doc)
        assert code == 0
        code, back, _ = run(["inverse"], q_doc)
        assert code == 0
        assert back == doc


def test_output_is_canonically_formatted():
    doc = pair_doc(Matrix.zero(GF2, 1, 1), Vector(GF2, (1,)))
    _, out, _ = run(["forward"], doc)
    parsed = json.loads(out)
    assert out == json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"


def test_degree_command():
    doc = pair_doc(Matrix.from_rows(GF2, [(0, 0), (1, 0)]), Vector(GF2, (1, 0)))
    code, out, _ = run(["degree"], doc)
    assert code == 0
    assert json.loads(out) == {"degree": 2}


def test_pair_payload_builds_its_field_once():
    """GF(9)'s tables are built once per process: every payload after
    the first reads the kernel its field already has."""
    gf9 = FieldSpec(3, 2)
    t = Matrix.from_rows(gf9, [[(i * 5 + j) % 9 if j < i else 0 for j in range(5)]
                               for i in range(5)])
    doc = pair_doc(t, Vector(gf9, (1, 0, 3, 8, 2)))
    _tabulated.cache_clear()
    code, q_doc, _ = run(["forward"], doc)
    assert code == 0
    for command, payload in (("degree", doc), ("inverse", q_doc), ("fitting", q_doc)):
        assert run([command], payload)[0] == 0, command
    assert _tabulated.cache_info().misses == 1
    assert _tabulated.cache_info().currsize == 1
    # an equal (p, k) with another modulus is another field
    other = Vector(FieldSpec(3, 2, (1, 0, 1)), (1, 0, 3, 8, 2))
    code, _, err = run(["forward"], canonical_dumps({"T": t.to_json(), "v": other.to_json()}))
    assert code == 2
    assert err == "error: operator and vector live in different fields\n"


def test_fitting_command_fields():
    q_doc = canonical_dumps(Matrix.from_rows(GF2, [(1, 0), (0, 0)]).to_json())
    code, out, _ = run(["fitting"], q_doc)
    assert code == 0
    payload = json.loads(out)
    assert payload["V"]["basis"] == [[1, 0]]
    assert payload["W"]["basis"] == [[0, 1]]
    assert payload["R"]["data"] == [[1]]
    assert payload["S"]["data"] == [[0]]


def test_joyal_forward_example():
    doc = canonical_dumps(
        {"tree": {"n": 2, "edges": [[0, 1]]}, "v": 0, "v2": 1})
    code, out, _ = run(["joyal-forward"], doc)
    assert code == 0
    assert json.loads(out) == {"n": 2, "table": [0, 1]}


def test_joyal_pipe_roundtrip():
    doc = canonical_dumps(
        {"tree": {"n": 4, "edges": [[0, 2], [1, 2], [2, 3]]}, "v": 3, "v2": 1})
    code, f_doc, _ = run(["joyal-forward"], doc)
    assert code == 0
    code, back, _ = run(["joyal-inverse"], f_doc)
    assert code == 0
    assert back == doc


def test_verify_theorem_json_mode():
    code, out, _ = run(["verify-theorem", "--p", "2", "--n", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["nilpotent_count"] == 4
    assert payload["ok"] is True


def test_verify_theorem_table_default():
    code, out, _ = run(["verify-theorem", "--p", "2", "--n", "1"])
    assert code == 0
    assert "nilpotent count" in out
    assert "{" not in out


def test_count_nilpotents_json():
    code, out, _ = run(["count-nilpotents", "--p", "2", "--k", "2", "--n", "1",
                        "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"q": 4, "n": 1, "count": 1, "expected": 1, "ok": True}


def test_verify_degrees_json():
    code, out, _ = run(["verify-degrees", "--p", "2", "--n", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [s["k"] for s in payload["strata"]] == [0, 1, 2]


def test_verify_joyal_modes():
    code, out, _ = run(["verify-joyal", "--n", "3", "--json"])
    assert code == 0
    assert json.loads(out)["tree_count"] == 3
    code, out, _ = run(["verify-joyal", "--n", "2"])
    assert code == 0
    assert "distinct trees" in out


# One sha256 per report command: its exit codes, its table without the
# elapsed line and its --json payload without elapsed_s.  Correct code
# must keep these bytes whatever the census does inside.
GOLDEN = {
    "verify-theorem --p 2 --n 2":
        "1bf611b676347c6876a20a05a0fc0b6875d91e77ad6ed79f2f150a9f3ad9b6eb",
    "verify-theorem --p 3 --n 2":
        "a0ee1da7a75d0761f3a60531952b08fcd620c3a511d309735efd9a6df1df7fb3",
    "verify-joyal --n 1": "8f0299c0310e09ddf9e22b3c6aecdaedac04cf68fb1d35a546ad93e129e20d5d",
    "verify-joyal --n 2": "a4d5d497e2dce9892733479696881f149c08f2a6455a7e3cf9b44fa954dd6775",
    "verify-joyal --n 3": "cd6550c8c2938fed85777c9e1003de0bd87ff8571773257453d0c60432e7b425",
    "verify-joyal --n 4": "96390599e8576a7f46c6cbf438e10d1764b6cb2efdd7b26f70475ba5b8bcb20b",
    "verify-joyal --n 5": "c820e4b9a2f79939666ca0c080e1458e97db58b9d6e5912bd20c2f1f93ea967b",
    "verify-degrees --p 2 --n 2":
        "ec29e303c934030819c41481540bb6011bc8dee99de40bb57ad11166626bf0d5",
    "count-nilpotents --p 3 --n 2":
        "23793db296189feb16b4a6781b1c1f766c38ff618629a1ff754247a15ce43fb8",
}


@pytest.mark.parametrize("command", GOLDEN)
def test_report_bytes_are_pinned(command):
    args = command.split()
    code, table, _ = run(args)
    json_code, out, _ = run(args + ["--json"])
    payload = json.loads(out)
    payload.pop("elapsed_s", None)
    kept = "".join(line for line in table.splitlines(keepends=True)
                   if not line.startswith("elapsed"))
    blob = f"{code}\n{kept}{json_code}\n{canonical_dumps(payload)}"
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN[command]


# The data commands against their exact bytes, document in and document
# out: a round trip cannot tell which bijection runs.
GF2_FIELD = '"field":{"k":1,"p":2}'
GF3_FIELD = '"field":{"k":1,"p":3}'
GF9_FIELD = '"field":{"k":2,"p":3,"poly":[2,2,1]}'
PAIR = ('{"T":{"cols":2,"data":[[0,0],[1,0]],' + GF2_FIELD + ',"rows":2},'
        '"v":{"entries":[1,0],' + GF2_FIELD + '}}')
# over GF(3), v = 2e_4 spans V, so R = (2), and T's U -> U block is
# nonzero, so both terms of Q's U -> V block F T_UU - R F show; back,
# T's U -> V block is the series -R^-1 X - R^-2 X T_UU - ..., which
# here needs its second term
PAIR3 = ('{"T":{"cols":4,"data":[[0,0,0,0],[1,0,0,0],[2,1,0,0],[0,2,1,0]],' + GF3_FIELD
         + ',"rows":4},"v":{"entries":[0,0,0,2],' + GF3_FIELD + '}}')
Q3 = '{"cols":4,"data":[[0,0,0,0],[1,0,0,0],[2,1,0,0],[1,0,1,2]],' + GF3_FIELD + ',"rows":4}'
FUNCTION7 = '{"n":7,"table":[1,2,0,2,3,6,5]}'
MARKED_TREE7 = '{"tree":{"edges":[[0,2],[0,6],[1,2],[2,3],[3,4],[5,6]],"n":7},"v":1,"v2":5}'
DATA_PINS = {
    "forward GF(3)": ("forward", PAIR3, Q3),
    "inverse GF(3)": ("inverse", Q3, PAIR3),
    "degree GF(2)": ("degree", PAIR, '{"degree":2}'),
    "fitting GF(2)": (
        "fitting", '{"cols":2,"data":[[1,0],[0,0]],' + GF2_FIELD + ',"rows":2}',
        '{"R":{"cols":1,"data":[[1]],' + GF2_FIELD + ',"rows":1},'
        '"S":{"cols":1,"data":[[0]],' + GF2_FIELD + ',"rows":1},'
        '"V":{"ambient":2,"basis":[[1,0]],' + GF2_FIELD + '},'
        '"W":{"ambient":2,"basis":[[0,1]],' + GF2_FIELD + '}}'),
    # over GF(3), dim V = 2 and W = ker(Q^4) shares V's pivots, so it is
    # not V's Steinitz complement, and S is nonzero and not symmetric
    "fitting GF(3)": (
        "fitting", '{"cols":4,"data":[[0,0,1,2],[1,1,0,0],[0,2,0,2],[2,2,0,0]],'
        + GF3_FIELD + ',"rows":4}',
        '{"R":{"cols":2,"data":[[0,1],[1,1]],' + GF3_FIELD + ',"rows":2},'
        '"S":{"cols":2,"data":[[2,2],[1,1]],' + GF3_FIELD + ',"rows":2},'
        '"V":{"ambient":4,"basis":[[1,0,0,0],[0,1,0,2]],' + GF3_FIELD + '},'
        '"W":{"ambient":4,"basis":[[1,0,0,1],[0,1,2,0]],' + GF3_FIELD + '}}'),
    # over GF(9), dim V = 2 of 4: the one elimination of [Q^m^T | I] scales
    # by the inv table, and R and S, proved by no one here, are pinned
    "fitting GF(9)": (
        "fitting", '{"cols":4,"data":[[7,4,5,7],[1,0,8,6],[3,2,5,0],[5,3,7,8]],'
        + GF9_FIELD + ',"rows":4}',
        '{"R":{"cols":2,"data":[[1,8],[0,7]],' + GF9_FIELD + ',"rows":2},'
        '"S":{"cols":2,"data":[[6,3],[6,3]],' + GF9_FIELD + ',"rows":2},'
        '"V":{"ambient":4,"basis":[[1,0,7,3],[0,1,5,7]],' + GF9_FIELD + '},'
        '"W":{"ambient":4,"basis":[[1,0,0,3],[0,1,2,5]],' + GF9_FIELD + '}}'),
    # a nilpotent operator, where the row cores meet blocks with no rows:
    # V = 0 and S = Q
    "fitting GF(3) nilpotent": (
        "fitting", '{"cols":5,"data":[[0,1,0,2,0],[0,0,0,0,0],[0,1,0,2,0],[0,0,0,0,0],'
        '[2,2,2,0,0]],' + GF3_FIELD + ',"rows":5}',
        '{"R":{"cols":0,"data":[],' + GF3_FIELD + ',"rows":0},'
        '"S":{"cols":5,"data":[[0,1,0,2,0],[0,0,0,0,0],[0,1,0,2,0],[0,0,0,0,0],[2,2,2,0,0]],'
        + GF3_FIELD + ',"rows":5},'
        '"V":{"ambient":5,"basis":[],' + GF3_FIELD + '},'
        '"W":{"ambient":5,"basis":[[1,0,0,0,0],[0,1,0,0,0],[0,0,1,0,0],[0,0,0,1,0],'
        '[0,0,0,0,1]],' + GF3_FIELD + '}}'),
    # two cycles, (0 1 2) and (5 6), and the tail 4 -> 3 -> 2 of length 2
    "joyal-inverse": ("joyal-inverse", FUNCTION7, MARKED_TREE7),
    "joyal-forward": ("joyal-forward", MARKED_TREE7, FUNCTION7),
}


@pytest.mark.parametrize("name", DATA_PINS)
def test_data_command_bytes_are_pinned(name):
    command, doc, expected = DATA_PINS[name]
    assert run([command], doc + "\n") == (0, expected + "\n", "")


def test_explicit_poly_flag():
    code, out, _ = run(["count-nilpotents", "--p", "2", "--k", "2",
                        "--poly", "1,1,1", "--n", "1", "--json"])
    assert code == 0
    assert json.loads(out)["q"] == 4


def one_by_one(field, rows=1, data=((1,),)):
    return canonical_dumps({"field": field, "rows": rows, "cols": 1,
                            "data": [list(row) for row in data]})


def test_exit_two_on_bad_inputs(tmp_path):
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff")
    cases = [
        (["inverse"], "not json"),
        (["inverse"], canonical_dumps({"field": {"p": 2}, "rows": 1, "cols": 2,
                                       "data": [[0, 0]]})),  # non-square
        (["forward"], canonical_dumps({"T": Matrix.identity(GF2, 2).to_json(),
                                       "v": Vector(GF2, (0, 0)).to_json()})),
        (["forward"], "{}"),
        (["count-nilpotents", "--p", "4", "--n", "2", "--json"], ""),
        (["count-nilpotents", "--p", "2", "--k", "2", "--poly", "x+1",
          "--n", "1"], ""),
        (["count-nilpotents", "--p", "2", "--n", "5", "--budget", "10"], ""),
        (["joyal-forward"], canonical_dumps({"tree": {"n": 2, "edges": []},
                                             "v": 0, "v2": 1})),
        (["inverse"], canonical_dumps({"field": {"p": 2}, "rows": 1, "cols": 1,
                                       "data": [["a"]]})),
        (["forward"], canonical_dumps({"T": Matrix.zero(GF2, 2, 2).to_json(),
                                       "v": {"field": {"p": 2}, "entries": "ab"}})),
        (["count-nilpotents", "--p", "2", "--n", "-1"], ""),
        (["verify-theorem", "--p", "2", "--n", "-1"], ""),
        (["verify-degrees", "--p", "2", "--n", "-1"], ""),
        (["verify-joyal", "--n", "-1"], ""),
        # JSON integer slots take integers only, never bool, float or str
        (["inverse"], one_by_one({"p": 2.7})),
        (["inverse"], one_by_one({"p": 2, "k": 1.5})),
        (["inverse"], one_by_one({"p": 2, "k": True})),
        (["inverse"], one_by_one({"p": 2, "k": "a"})),
        (["inverse"], one_by_one({"p": 2}, rows=1.9)),
        (["inverse"], one_by_one({"p": 2}, data=[[True]])),
        (["inverse"], one_by_one({"p": 2}, data=[[1.0]])),
        (["joyal-forward"], canonical_dumps({"tree": {"n": 2, "edges": [[0, 1]]},
                                             "v": 0.5, "v2": 1})),
        (["joyal-forward"], canonical_dumps({"tree": {"n": 2, "edges": [[0, 1]]},
                                             "v": 0, "v2": True})),
        (["joyal-inverse"], canonical_dumps({"n": 2, "table": [0, 1.0]})),
        # a field of q >= 2^128 is refused before its poly is tested
        (["inverse"], one_by_one({"p": 2, "k": 400, "poly": [1, 1] + [0] * 398 + [1]})),
        # grid points far beyond --budget are refused before any q^(n²) is built
        (["count-nilpotents", "--p", "3", "--n", "12000"], ""),
        (["count-nilpotents", "--p", "2", "--n", "200", "--json"], ""),
        (["verify-theorem", "--p", "2", "--n", "200"], ""),
        (["verify-degrees", "--p", "2", "--n", "200"], ""),
        (["verify-joyal", "--n", "2000"], ""),
        # an n whose square has more digits than Python formats (4,400)
        (["verify-theorem", "--p", "2", "--n", "9" * 2200], ""),
        (["count-nilpotents", "--p", "2", "--n", "9" * 2200], ""),
        (["verify-degrees", "--p", "2", "--n", "9" * 2200], ""),
        (["verify-joyal", "--n", "9" * 2200], ""),
        # documents that do not decode to JSON the library can hold
        (["inverse", "--input", str(not_utf8)], ""),
        (["inverse"], io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8")),
        (["inverse"], "1" * 5000),
        (["inverse"], "[" * 100_000),
        # a JSON string or object in a sequence slot is no sequence of entries
        (["inverse"], '{"cols":0,"data":"","field":{"p":2},"rows":0}'),
        (["inverse"], '{"cols":0,"data":{},"field":{"p":2},"rows":0}'),
        (["inverse"], '{"cols":1,"data":[{"a":1}],"field":{"p":2},"rows":1}'),
        (["joyal-forward"], '{"tree":{"n":1,"edges":{}},"v":0,"v2":0}'),
    ]
    for args, doc in cases:
        code, out, err = run(args, doc)
        assert code == 2, (args, out, err)
        assert err.startswith("error:")
        assert err.strip().count("\n") == 0  # one-line diagnostic


def test_exit_two_on_usage_errors(capsys):
    assert run(["verify-theorem", "--n", "2"])[0] == 2  # missing --p
    assert run(["no-such-command"])[0] == 2
    assert run([])[0] == 2
    for shards in ("0", "4"):  # the flag is gone
        assert run(["verify-theorem", "--p", "2", "--n", "1",
                    "--shards", shards])[0] == 2
    for report in (["count-nilpotents", "--p", "2", "--n", "1"],
                   ["verify-theorem", "--p", "2", "--n", "1"],
                   ["verify-degrees", "--p", "2", "--n", "1"],
                   ["verify-joyal", "--n", "1"]):  # report commands read no input
        assert run(report + ["--input", "/nonexistent"])[0] == 2
    capsys.readouterr()


@pytest.mark.parametrize("module", ["nilbij", "nilbij.cli"])
def test_module_form_keeps_the_exit_codes(module):
    """``python -m nilbij`` and ``python -m nilbij.cli`` run ``main``: the
    same bytes and exit 0 for a report, and exit 2 for a bad flag, never
    the 1 of a failed verification or a silent 0."""
    src = str(Path(nilbij.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run_module(*args):
        return subprocess.run([sys.executable, "-m", module, *args], env=env,
                              capture_output=True, text=True, timeout=60)

    args = ["count-nilpotents", "--p", "3", "--n", "2", "--json"]
    done = run_module(*args)
    out = io.StringIO()
    assert main(args, stdout=out) == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, out.getvalue(), "")
    done = run_module("verify-joyal", "--n", "0")
    assert done.returncode == 2 and done.stderr.startswith("error:")


def test_usage_and_help_go_to_the_given_streams(capsys):
    out, err = io.StringIO(), io.StringIO()
    assert main(["inverse", "--no-such-flag"], stdin=io.StringIO(""),
                stdout=out, stderr=err) == 2
    assert err.getvalue().startswith("usage: nilbij")
    assert "--no-such-flag" in err.getvalue()
    assert out.getvalue() == ""
    out = io.StringIO()
    assert main(["--help"], stdout=out) == 0
    assert out.getvalue().startswith("usage: nilbij")
    assert "verify-theorem" in out.getvalue()
    assert capsys.readouterr() == ("", "")


def test_shared_parser_carries_no_state(capsys):
    """Each command gives the same exit code and bytes after other
    commands, usage errors included, as it does on a fresh parser."""
    import nilbij.cli as cli_mod

    pair = pair_doc(Matrix.from_rows(GF2, [(0, 0), (1, 0)]), Vector(GF2, (1, 1)))
    _, q_doc, _ = run(["forward"], pair)
    commands = [
        (["inverse", "--no-such-flag"], q_doc),
        (["inverse"], q_doc),
        (["verify-theorem", "--p", "2", "--n", "2", "--json"], ""),
        (["forward"], pair),
    ]

    def outcome(args, text):
        code, out, err = run(args, text)
        if args[0] == "verify-theorem":
            out = json.loads(out)
            del out["elapsed_s"]
        return code, out, err, capsys.readouterr()

    first = []
    for args, text in commands:
        cli_mod._build_parser.cache_clear()
        first.append(outcome(args, text))
    cli_mod._build_parser.cache_clear()
    in_turn = [outcome(args, text) for args, text in commands]
    assert in_turn == first
    assert [code for code, *_ in first] == [2, 0, 0, 0]
    assert cli_mod._build_parser.cache_info().misses == 1


def test_exit_one_on_verification_failure(monkeypatch):
    import nilbij.cli as cli_mod

    broken = CensusReport(
        q=2, n=1, total_operators=2, nilpotent_count=1, expected_nilpotents=1,
        roundtrip_failures=1, surjectivity_gap=0, per_degree=((0, 1, 1),),
        elapsed_s=0.0, ok=False,
    )
    monkeypatch.setattr(cli_mod, "verify_theorem", lambda *a, **k: broken)
    code, out, _ = run(["verify-theorem", "--p", "2", "--n", "1", "--json"])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_inverse_forward_pipe_over_a_huge_prime():
    spec = FieldSpec(10**18 + 3)
    for rows in ([(5,)], [(1, spec.q - 1), (2, 3)], [(0, 1), (0, 0)]):
        q_doc = canonical_dumps(Matrix.from_rows(spec, rows).to_json())
        code, pair, err = run(["inverse"], q_doc)
        assert code == 0, err
        code, back, err = run(["forward"], pair)
        assert code == 0, err
        assert back == q_doc


def test_input_output_files(tmp_path):
    src = tmp_path / "pair.json"
    dst = tmp_path / "op.json"
    src.write_text(pair_doc(Matrix.zero(GF2, 1, 1), Vector(GF2, (1,))))
    code, out, _ = run(["forward", "--input", str(src), "--output", str(dst)])
    assert code == 0 and out == ""
    assert json.loads(dst.read_text()) == Matrix.identity(GF2, 1).to_json()
    code, _, err = run(["forward", "--input", str(tmp_path / "missing.json")])
    assert code == 2 and "error:" in err
    for command, payload in VALID_PAYLOADS.items():  # files give the stdio bytes
        src.write_text(canonical_dumps(payload))
        expected = run([command], canonical_dumps(payload))
        assert expected[0] == 0
        code, out, err = run([command, "--input", str(src), "--output", str(dst)])
        assert (code, out, err) == (0, "", "")
        assert dst.read_text() == expected[1]


# -- boundary fuzzing --------------------------------------------------

GF4_EXPLICIT = {"p": 2, "k": 2, "poly": [1, 1, 1]}
VALID_PAYLOADS = {
    "inverse": Matrix.from_rows(GF2, [(1, 1), (0, 1)]).to_json(),
    "fitting": {"field": GF4_EXPLICIT, "rows": 2, "cols": 2, "data": [[2, 0], [1, 0]]},
    "forward": NilpotentPair(Matrix.from_rows(GF2, [(0, 0), (1, 0)]),
                             Vector(GF2, (1, 1))).to_json(),
    "degree": {
        "T": {"field": GF4_EXPLICIT, "rows": 2, "cols": 2, "data": [[0, 3], [0, 0]]},
        "v": {"field": GF4_EXPLICIT, "entries": [2, 1]},
    },
    "joyal-forward": {"tree": {"n": 3, "edges": [[0, 1], [1, 2]]}, "v": 0, "v2": 2},
    "joyal-inverse": {"n": 3, "table": [0, 0, 1]},
}
# Wrong-typed, out-of-range, non-prime and huge values for any slot.
BAD_VALUES = (-1, 0, 1, 2, 3, 4, 9, 2**64, 10**30, 10**18 + 3, 1.5, 2.0, True, False,
              "a", "2", None, [], {}, [[]], [[0, 1]])


def _paths(obj, prefix=()):
    """Every position below the root of a JSON document."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, kind: str, value):
    """Apply one mutation at ``path``: drop it (a missing key or a
    truncated row), or replace it with ``value``."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzzed_payloads_exit_zero_or_two(data):
    command = data.draw(st.sampled_from(sorted(VALID_PAYLOADS)))
    doc = copy.deepcopy(VALID_PAYLOADS[command])
    path = data.draw(st.sampled_from(list(_paths(doc))))
    kind = data.draw(st.sampled_from(("drop", "set")))
    value = data.draw(st.sampled_from(BAD_VALUES))
    code, out, err = run([command], canonical_dumps(_mutate(doc, path, kind, value)))
    assert code in (0, 2), (command, path, kind, value, err)
    assert (code == 2) == err.startswith("error:")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["count-nilpotents", "verify-theorem", "verify-degrees"]),
       st.sampled_from([(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (2, 2),
                        (2, 0), (3, -1)]),
       st.sampled_from([None, "1,1,1", "1,0,1", "1,1", "x", ""]),
       st.one_of(st.integers(-1, 2), st.sampled_from([200, 10**6])),
       st.sampled_from([None, 0, 10]), st.booleans())
def test_fuzzed_report_flags_exit_zero_one_or_two(command, pk, poly, n, budget, as_json):
    p, k = pk
    args = [command, "--p", str(p), "--k", str(k), "--n", str(n)]
    args += ["--poly", poly] if poly is not None else []
    args += ["--budget", str(budget)] if budget is not None else []
    args += ["--json"] if as_json else []
    assert run(args)[0] in (0, 1, 2)
    joyal = ["verify-joyal", "--n", str(n)] + (["--json"] if as_json else [])
    assert run(joyal)[0] in (0, 1, 2)
