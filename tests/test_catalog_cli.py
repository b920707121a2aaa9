import hashlib
import json
import subprocess
import sys

import pytest

from blockscope.catalog import (EXIT_INPUT, EXIT_INTERNAL, EXIT_PASS, EXIT_VERDICT_FAIL,
                                builtin_catalog_path, load_catalog, run_catalog,
                                summarize)
from blockscope.cli import main
from blockscope.errors import InternalInconsistency, InvalidAction, ParseError


def test_builtin_catalog_loads():
    entries = load_catalog(builtin_catalog_path())
    assert len(entries) >= 12
    names = [e.name for e in entries]
    assert len(set(names)) == len(names)
    in_scope = [e for e in entries
                if e.expected.get("case_label") in ("case_i", "case_ii", "P_equals_Q")]
    assert len(in_scope) >= 8


def test_run_catalog_small_filter(tmp_path):
    report, code = run_catalog(builtin_catalog_path(), filters=["S4", "A4"])
    assert code == EXIT_PASS
    assert report["summary"] == {"total": 2, "passed": 2, "failed": 0, "errored": 0}
    for item in report["entries"]:
        assert item["status"] == "pass"
        assert all(item["invariant_suite"].values())
    text = summarize(report)
    assert "S4" in text and "PASS" in text


def test_run_catalog_deterministic(tmp_path):
    r1, _ = run_catalog(builtin_catalog_path(), filters=["S4"], seed=0)
    r2, _ = run_catalog(builtin_catalog_path(), filters=["S4"], seed=0)
    blob1 = json.dumps(r1, sort_keys=True)
    blob2 = json.dumps(r2, sort_keys=True)
    assert blob1 == blob2


def test_empty_catalog(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"entries": []}))
    report, code = run_catalog(str(path))
    assert code == EXIT_PASS
    assert report["summary"]["total"] == 0


def test_errored_entry_marks_and_continues(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"entries": [
        {"name": "too-many-classes", "prime": 2,
         "recipe": {"kind": "cyclic", "n": 400}},
        {"name": "S4", "prime": 2, "recipe": {"kind": "symmetric", "n": 4},
         "expected": {"case_label": "case_ii"}},
    ]}))
    report, code = run_catalog(str(path))
    assert code == EXIT_VERDICT_FAIL
    statuses = {i["name"]: i["status"] for i in report["entries"]}
    assert statuses["too-many-classes"] == "errored"
    assert statuses["S4"] == "pass"
    assert "CapExceeded" in report["entries"][0]["error"]


def test_failed_expectation(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"entries": [
        {"name": "S4", "prime": 2, "recipe": {"kind": "symmetric", "n": 4},
         "expected": {"case_label": "case_i"}},
    ]}))
    report, code = run_catalog(str(path))
    assert code == EXIT_VERDICT_FAIL
    assert report["entries"][0]["status"] == "fail"
    assert report["entries"][0]["expected_verdicts"]["expected_case_label"] == "fail"


def test_malformed_catalog(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        run_catalog(str(path))


# -- CLI surface


def test_cli_analyze_preset(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", "--group", "S4", "--prime", "2", "--out", str(out)])
    assert code == EXIT_PASS
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["case_label"] == "case_ii"
    assert payload["measured"]["l_b"] == 2
    assert payload["threshold_reading"] == "le16"


def test_cli_analyze_recipe_file(tmp_path):
    recipe = tmp_path / "a4.json"
    recipe.write_text(json.dumps({"kind": "alternating", "n": 4}))
    out = tmp_path / "a4_report.json"
    code = main(["analyze", "--group", str(recipe), "--out", str(out)])
    assert code == EXIT_PASS
    assert json.loads(out.read_text())["case_label"] == "P_equals_Q"


def test_cli_analyze_z7_at_3(tmp_path, capsys):
    # GF(3^6) is the residue field: its modulus must be irreducible
    recipe = tmp_path / "z7.json"
    recipe.write_text(json.dumps({"kind": "cyclic", "n": 7}))
    out = tmp_path / "z7_report.json"
    code = main(["analyze", "--group", str(recipe), "--prime", "3", "--out", str(out)])
    assert code == EXIT_PASS
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert [(b["k"], b["l"]) for b in payload["blocks"]] == [(1, 1)] * 7


@pytest.mark.parametrize("recipe", [
    {"kind": "cyclic", "n": 1},
    {"kind": "symmetric", "n": 1},
    {"kind": "alternating", "n": 2},
])
def test_cli_analyze_trivial_group(recipe, tmp_path, capsys):
    # the trivial group has an empty base: its class matrix kernel sees m = 0
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(recipe))
    out = tmp_path / "trivial_report.json"
    assert main(["analyze", "--group", str(path), "--out", str(out)]) == EXIT_PASS
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert [(b["k"], b["l"]) for b in payload["blocks"]] == [(1, 1)]
    assert all(payload["invariant_suite"].values())


def test_cli_analyze_strict_flag(tmp_path, capsys):
    out = tmp_path / "g96.json"
    code = main(["analyze", "--group", "G96", "--strict-lt-16", "--out", str(out)])
    assert code == EXIT_PASS
    payload = json.loads(out.read_text())
    assert payload["case_label"] == "out_of_scope_Q_too_large"
    assert payload["threshold_reading"] == "lt16"


def test_cli_table(tmp_path):
    out = tmp_path / "table.json"
    code = main(["table", "--group", "S4", "--out", str(out)])
    assert code == EXIT_PASS
    payload = json.loads(out.read_text())
    assert payload["degrees"] == [1, 1, 2, 3, 3]


def test_cli_input_error(capsys):
    code = main(["analyze", "--group", "/nonexistent/path.json"])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_cli_catalog_filter(tmp_path, capsys):
    out = tmp_path / "cat.json"
    code = main(["catalog", "--filter", "Z6", "--filter", "S3xS3", "--out", str(out)])
    assert code == EXIT_PASS
    payload = json.loads(out.read_text())
    assert payload["summary"]["total"] == 2
    text = capsys.readouterr().out
    assert "nilpotent" in text


def test_cli_catalog_filter_matching_nothing_is_an_input_error(capsys):
    code = main(["catalog", "--filter", "S4", "--filter", "S44"])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert "'S44'" in captured.err and "input error" in captured.err
    assert captured.out == ""      # refused before any entry runs


def test_cli_reports_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["analyze", "--group", "A4", "--seed", "3", "--out", str(out1)]) == EXIT_PASS
    assert main(["analyze", "--group", "A4", "--seed", "3", "--out", str(out2)]) == EXIT_PASS
    assert out1.read_bytes() == out2.read_bytes()


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "blockscope.cli", "table",
                           "--group", "Z6"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 6


# -- unusable input and containment


def test_cli_analyze_at_a_61_bit_prime(tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", "--group", "S4", "--prime", str(2**61 - 1),
                 "--out", str(out)]) == EXIT_PASS
    assert [(b["k"], b["l"]) for b in json.loads(out.read_text())["blocks"]] == [(1, 1)] * 5


def test_cli_refuses_a_prime_past_the_primality_bound(capsys):
    assert main(["analyze", "--group", "S4", "--prime", str(2**89 - 1)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error") and "Traceback" not in err


@pytest.mark.parametrize("prime", [0, 1, 4, -3])
def test_cli_rejects_a_non_prime(prime, capsys):
    code = main(["analyze", "--group", "S4", "--prime", str(prime)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error")


@pytest.mark.parametrize("recipe", [
    {"kind": "cyclic"},
    {"kind": "cyclic", "n": "4"},
    {"kind": "cyclic", "n": True},
    {"kind": "alternating", "n": False},
    {"kind": "direct", "a": {"kind": "cyclic", "n": 2}},
    {"kind": "semidirect", "base": {"kind": "cyclic", "n": 3},
     "acting": {"kind": "cyclic", "n": 2}},
])
def test_cli_malformed_recipe_is_an_input_error(recipe, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(recipe))
    assert main(["analyze", "--group", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error") and "Traceback" not in err


def _deep_recipe(depth):
    r = {"kind": "cyclic", "n": 2}
    for _ in range(depth - 1):
        r = {"kind": "direct", "a": r, "b": {"kind": "cyclic", "n": 2}}
    return r


@pytest.mark.parametrize("text", [json.dumps(_deep_recipe(600)), "[" * 10**5 + "]" * 10**5],
                         ids=["600-deep recipe", "JSON past the decoder's depth"])
def test_a_deep_recipe_exits_3_with_no_traceback(text, tmp_path):
    recipe = tmp_path / "deep.json"
    recipe.write_text(text)
    catalog = tmp_path / "catalog.json"
    catalog.write_text('{"entries": [{"name": "deep", "recipe": ' + text + "}]}")
    for command in (["analyze", "--group", str(recipe)], ["catalog", "--file", str(catalog)]):
        proc = subprocess.run([sys.executable, "-m", "blockscope.cli", *command],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.startswith("input error") and "Traceback" not in proc.stderr


def test_sylow_over_the_enumeration_cap_is_refused_before_any_work(monkeypatch):
    from blockscope import catalog
    from blockscope.errors import CapExceeded
    from blockscope.recipes import construct_group, cyclic

    def no_work(*args, **kwargs):
        raise AssertionError("classify_case ran before the cap check")

    monkeypatch.setattr(catalog, "classify_case", no_work)
    with pytest.raises(CapExceeded, match="exceeds enumeration cap 256"):
        catalog.analyze_group(construct_group(cyclic(512)), 2)


def test_the_refusal_reads_the_enumeration_cap_of_groups(monkeypatch):
    """Raising or lowering `groups.SUBGROUP_ENUM_CAP` moves the early refusal
    too: S4's |P| = 8 is refused at a cap of 4, before any work."""
    from blockscope import catalog, groups
    from blockscope.errors import CapExceeded
    from blockscope.recipes import construct_group, symmetric

    def no_work(*args, **kwargs):
        raise AssertionError("classify_case ran before the cap check")

    monkeypatch.setattr(groups, "SUBGROUP_ENUM_CAP", 4)
    monkeypatch.setattr(catalog, "classify_case", no_work)
    with pytest.raises(CapExceeded, match="exceeds enumeration cap 4$"):
        catalog.analyze_group(construct_group(symmetric(4)), 2)


@pytest.mark.parametrize("error, exit_code", [
    (RuntimeError, EXIT_VERDICT_FAIL), (InternalInconsistency, EXIT_INTERNAL),
    (InvalidAction, EXIT_INPUT)])
def test_an_entry_raising_any_exception_does_not_abort_the_run(error, exit_code, tmp_path,
                                                               monkeypatch):
    from blockscope import catalog

    real = catalog.analyze_group

    def flaky(group, p, **kwargs):
        if group.order == 6:
            raise error("boom")
        return real(group, p, **kwargs)

    monkeypatch.setattr(catalog, "analyze_group", flaky)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"entries": [
        {"name": "Z6", "recipe": {"kind": "cyclic", "n": 6}},
        {"name": "A4", "recipe": {"kind": "alternating", "n": 4}},
    ]}))
    report, code = run_catalog(str(path))
    assert code == exit_code
    statuses = {i["name"]: i["status"] for i in report["entries"]}
    assert statuses == {"Z6": "errored", "A4": "pass"}
    assert report["entries"][0]["error"] == f"{error.__name__}: boom"


INVALID_ACTION = {"kind": "semidirect",
                  "base": {"kind": "direct", "a": {"kind": "cyclic", "n": 4},
                           "b": {"kind": "cyclic", "n": 4}},
                  "acting": {"kind": "cyclic", "n": 3},
                  "action": [["(5,6,7,8)", "(1,2,3,4)"]]}


def test_an_invalid_action_exits_3_through_analyze_and_catalog(tmp_path, capsys):
    recipe = tmp_path / "bad.json"
    recipe.write_text(json.dumps(INVALID_ACTION))
    assert main(["analyze", "--group", str(recipe)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error")
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"entries": [
        {"name": "bad", "recipe": INVALID_ACTION},
        {"name": "S3", "recipe": {"kind": "symmetric", "n": 3}}]}))
    out = tmp_path / "report.json"
    assert main(["catalog", "--file", str(path), "--out", str(out)]) == EXIT_INPUT
    report = json.loads(out.read_text())
    assert [i["status"] for i in report["entries"]] == ["errored", "pass"]
    assert report["entries"][0]["error"] == (
        "InvalidAction: recipe-theoretic order 48 != constructed order 96")
    assert report["entries"][0]["recipe"] == INVALID_ACTION


def test_a_run_exits_with_the_first_of_2_3_1_any_entry_gave(tmp_path, monkeypatch):
    from blockscope import catalog

    errors = {2: RuntimeError, 3: InvalidAction, 4: InternalInconsistency}
    real = catalog.analyze_group

    def flaky(group, p, **kwargs):
        if group.order in errors:
            raise errors[group.order]("boom")
        return real(group, p, **kwargs)

    monkeypatch.setattr(catalog, "analyze_group", flaky)
    path = tmp_path / "mixed.json"
    for orders, code in [((2, 3, 4), EXIT_INTERNAL), ((2, 3), EXIT_INPUT),
                         ((3, 2), EXIT_INPUT), ((2, 1), EXIT_VERDICT_FAIL), ((1,), EXIT_PASS)]:
        path.write_text(json.dumps({"entries": [
            {"name": f"Z{n}", "recipe": {"kind": "cyclic", "n": n}} for n in orders]}))
        assert run_catalog(str(path))[1] == code, orders


@pytest.mark.parametrize("prime", ["x", "2", 2.5, None, True])
def test_cli_catalog_prime_not_an_integer_is_an_input_error(prime, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"entries": [
        {"name": "Z6", "prime": prime, "recipe": {"kind": "cyclic", "n": 6}}]}))
    assert main(["catalog", "--file", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error") and "Traceback" not in err


@pytest.mark.parametrize("catalog", [
    {"entries": 5},
    {"entries": [1]},
    {"entries": [{"name": "X", "recipe": "S4"}]},
    {"entries": [{"name": "X", "recipe": {"kind": "direct", "a": "oops",
                                          "b": {"kind": "cyclic", "n": 2}}}]},
    {"entries": [{"name": ["x"], "recipe": {"kind": "cyclic", "n": 2}}]},
    {"entries": [{"name": "X", "provenance": 7, "recipe": {"kind": "cyclic", "n": 2}}]},
    {"entries": [{"name": "X", "expected": "abc", "recipe": {"kind": "cyclic", "n": 2}}]},
    {"entries": [{"name": "X", "expected": {"lower_defect": 5},
                  "recipe": {"kind": "cyclic", "n": 2}}]},
    {"entries": [{"name": "X", "expected": {"lower_defect": [[2, 1, 0]]},
                  "recipe": {"kind": "cyclic", "n": 2}}]},
    {"entries": [{"name": "X", "expected": {"lower_defect": [["1", 1]]},
                  "recipe": {"kind": "cyclic", "n": 2}}]},
    {"entries": [{"name": "X", "prime": 4, "recipe": {"kind": "cyclic", "n": 2}}]},
])
def test_cli_malformed_catalog_is_an_input_error(catalog, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(catalog))
    assert main(["catalog", "--file", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["analyze", "--group", "S4"], ["catalog", "--filter", "S4"], ["table", "--group", "S4"]])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_cli_unwritable_out_is_refused_before_any_work(command, where, tmp_path,
                                                       monkeypatch, capsys):
    from blockscope import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the --out check")

    for name in ("analyze_group", "run_catalog", "character_table"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
    assert main(command + ["--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error") and "Traceback" not in err


# sha256 of `blockscope catalog --out` on these entries; they cover every case
# label except `out_of_scope_Q_too_large`, which only slower entries reach.
# L96_Z6 is the cheapest `out_of_scope_Q_not_central` entry: out-of-scope
# entries check the principal-block induction without local tables.
GOLDEN_ENTRIES = ("S4", "S5", "A4", "A5", "L48", "G96", "A4xZ4", "F56", "Z4wrZ2",
                  "Z3wrZ2", "Z6", "S3xS3", "L96_Z6")
GOLDEN_SHA256 = "c1e2ad4d359aa46e0fb3c273475cc4bad7d10b90e8beebac6aa46e270bd7bc3e"


def test_catalog_report_is_unchanged(tmp_path, capsys):
    out = tmp_path / "golden.json"
    argv = ["catalog", "--out", str(out)]
    for name in GOLDEN_ENTRIES:
        argv += ["--filter", name]
    assert main(argv) == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("name", ["S4", "A4", "L48", "G96", "A4xZ4", "S4xZ2"])
def test_analyze_builds_one_character_table_per_distinct_group(name, monkeypatch):
    """A normalizer or centralizer equal to G is G's own handle, so G's
    table is built once."""
    from blockscope import catalog, chartable
    from blockscope.recipes import construct_group
    from conftest import RECIPES

    built = []
    build_table = chartable._build_table

    def counting_build(g):
        built.append(g.element_set())
        return build_table(g)

    monkeypatch.setattr(chartable, "_build_table", counting_build)
    catalog.analyze_group(construct_group(RECIPES[name]), 2)
    assert built and len(built) == len(set(built))
