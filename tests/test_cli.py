"""Command-line surface: exit codes, JSON/CSV outputs, flag validation, the
generator round-trip, and the README's list of package entry points."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pomdpcheck
from pomdpcheck import (PomdpModel, assumption_report, gamma_matrices,
                        gen_example, list_examples, loads_model, model_to_json,
                        save_model)
from pomdpcheck.cli import _emit, build_parser, main

from oracles import copositive_kaplan_oracle


@pytest.fixture()
def ex1_path(tmp_path):
    path = tmp_path / "ex1.json"
    save_model(gen_example("ex1"), path)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# validate / check
# ---------------------------------------------------------------------------

def test_validate_ok(capsys, ex1_path):
    code, doc = run_json(capsys, ["validate", ex1_path])
    assert code == 0
    assert doc["valid"] and doc["violations"] == []


def test_validate_bad_model_exits_two(tmp_path):
    doc = json.loads(model_to_json(gen_example("ex1")))
    doc["observation"][0][0] = [0.9, 0.9, 0.9]      # row sums to 2.7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2


def test_missing_file_exits_two():
    assert main(["validate", "/nonexistent/model.json"]) == 2
    assert main(["solve", "/nonexistent/model.json"]) == 2


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not valid json")
    assert main(["check", str(path)]) == 2


@pytest.mark.parametrize("field, value", [
    ("X", 3.9), ("U", 2.5), ("X", "3"), ("U", 2.0), ("Y", True)])
def test_non_integer_count_exits_two(capsys, tmp_path, field, value):
    """The counts X, Y and U must be JSON integers; check used to truncate
    3.9 and 2.5 and parse "3", then report on the model and exit 0."""
    doc = json.loads(model_to_json(gen_example("ex1")))
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be JSON integers" in captured.err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_discount_exits_two(capsys, tmp_path, literal):
    """A discount that JSON spells NaN or Infinity is refused before any
    command computes on it; check used to print a report and exit 0."""
    text = re.sub(r'"discount": [^,]+', f'"discount": {literal}',
                  model_to_json(gen_example("ex1")))
    path = tmp_path / "bad.json"
    path.write_text(text)
    for argv in (["check"], ["validate"], ["solve", "--grid", "5"],
                 ["verify", "--grid", "5"]):
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["check"], ["solve", "--horizon", "4"], ["verify", "--horizon", "20"],
    ["solve", "--method", "grid", "--grid", "10"],
    ["compare", "--grid", "5", "--horizon", "3"],
], ids=["check", "solve", "verify", "solve-grid", "compare"])
def test_non_stochastic_model_exits_two(capsys, tmp_path, argv):
    """A row that is not a distribution is refused by every command that
    computes on the model, with the messages validate gives."""
    doc = json.loads(model_to_json(gen_example("ex1")))
    doc["observation"][0][0] = [0.4, 0.1, 0.0]       # row sums to 0.5
    doc["transition"]["shared"][1] = [0.1, 1.0, 0.1]  # row sums to 1.2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert violations == ["transition[0] row 1: row sum 1.2 != 1",
                          "transition[1] row 1: row sum 1.2 != 1",
                          "observation[0] row 0: row sum 0.5 != 1"]
    models = [str(path)] * (2 if argv[0] == "compare" else 1)
    assert main([argv[0], *models, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(v in captured.err for v in violations)


def _tp2_witness_model():
    """Two states whose kernels fail TP2, so the report carries witnesses."""
    return PomdpModel(
        name="tp2_witness", discount=0.9,
        transition=[[[0.2, 0.8], [0.9, 0.1]], [[0.5, 0.5], [0.3, 0.7]]],
        observation=[[[0.7, 0.3], [0.2, 0.8]], [[0.9, 0.1], [0.1, 0.9]]],
        reward=[[1.0, 2.0], [2.5, 0.5]])


@pytest.mark.parametrize("name", [*list_examples(), "tp2_witness"])
def test_check_prints_the_assumption_report(capsys, tmp_path, name):
    m = _tp2_witness_model() if name == "tp2_witness" else gen_example(name)
    path = tmp_path / "model.json"
    save_model(m, path)
    code, doc = run_json(capsys, ["check", str(path)])
    assert code == 0
    report = assumption_report(m)
    assert json.loads(json.dumps(report)) == report
    assert doc == {"model": m.name, **report}


def test_check_reports_hypotheses(capsys, ex1_path):
    code, doc = run_json(capsys, ["check", ex1_path])
    assert code == 0
    assert [v["holds"] for v in doc["a2_tp2_transition"]] == [True, True]
    assert [v["holds"] for v in doc["a5_row_dominance"]] == [False]
    assert [v["holds"] for v in doc["blackwell"]] == [False]
    assert doc["statement1_applicable"] is True


def _action_drift_model():
    """Three states whose drift depends on the action.  Every bundled model
    uses one transition matrix for all actions, so their gamma matrices are
    all zero."""
    return PomdpModel(
        name="action_drift", discount=0.9,
        transition=[[[0.8, 0.2, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]],
                    [[0.6, 0.3, 0.1], [0.05, 0.75, 0.2], [0.0, 0.1, 0.9]]],
        observation=[[[0.7, 0.3], [0.5, 0.5], [0.2, 0.8]]] * 2,
        reward=[[0.0, 1.0, 2.0], [0.1, 1.0, 1.9]])


@pytest.mark.parametrize("build, nonzero", [
    pytest.param(lambda: gen_example("tridiagonal", num_states=4), False,
                 id="4"),
    pytest.param(lambda: gen_example("tridiagonal", num_states=5), False,
                 id="5"),
    pytest.param(_action_drift_model, True, id="action_drift"),
])
def test_check_tridiagonal_copositivity_matches_kaplan(capsys, tmp_path,
                                                       build, nonzero):
    model = build()
    path = tmp_path / "model.json"
    save_model(model, path)
    code, doc = run_json(capsys, ["check", str(path)])
    assert code == 0
    gammas = [gamma_matrices(model.transition[u], model.transition[u + 1])
              for u in range(model.num_actions - 1)]
    assert any(np.abs(g).max() > 0.0 for g in gammas) == nonzero
    expected = [[copositive_kaplan_oracle(g) for g in stack] for stack in gammas]
    verdicts = doc["a4_copositive_dominance"]
    assert [v["holds"] for v in verdicts] == [all(e) for e in expected]
    for v, e in zip(verdicts, expected):
        if not v["holds"]:
            assert v["witness"]["gamma_index"] == e.index(False)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_json_and_csv(tmp_path, ex1_path):
    out = tmp_path / "vf.json"
    table = tmp_path / "policy.csv"
    code = main(["solve", ex1_path, "--horizon", "4", "--method", "exact",
                 "--grid", "20", "--out", str(out), "--csv", str(table)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "exact"
    assert doc["gamma_monotone"]["fully_increasing"] is True
    rows = list(csv.reader(table.open()))
    assert rows[0] == ["belief_1", "belief_2", "belief_3", "value",
                       "optimal_action", "myopic_action", "q_1", "q_2"]
    assert len(rows) - 1 == 231                  # C(22, 2) grid points
    values = np.array([float(r[3]) for r in rows[1:]])
    qs = np.array([[float(r[6]), float(r[7])] for r in rows[1:]])
    assert np.allclose(values, qs.max(axis=1))
    assert all(r[4] in ("1", "2") and r[5] in ("1", "2") for r in rows[1:])


def test_solve_grid_method(capsys, ex1_path):
    code, doc = run_json(capsys, ["solve", ex1_path, "--method", "grid",
                                  "--grid", "10", "--horizon", "6"])
    assert code == 0
    assert doc["kind"] == "grid"


def test_solver_flag_validation(ex1_path):
    assert main(["solve", ex1_path, "--grid", "0", "--horizon", "2"]) == 2
    assert main(["solve", ex1_path, "--residual", "-1.0"]) == 2
    assert main(["solve", ex1_path, "--horizon", "-3"]) == 2
    with pytest.raises(SystemExit):             # argparse rejects the pair
        main(["solve", ex1_path, "--horizon", "2", "--residual", "1e-8"])
    with pytest.raises(SystemExit):             # no --tol flag
        main(["solve", ex1_path, "--tol", "nope=1e-9", "--horizon", "2"])


@pytest.mark.parametrize("stop", [["--horizon", "6"], ["--grid", "35"]])
def test_solve_over_cross_sum_cap_exits_two(capsys, tmp_path, stop):
    """ex2's exact cross-sums outgrow the vector cap, from the zero start
    at horizon 6 and from the resolution-20 warm start of the default
    residual mode; either way the solve ends on one error line."""
    path = tmp_path / "ex2.json"
    save_model(gen_example("ex2"), path)
    assert main(["solve", str(path), *stop]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cross-sum")


@pytest.mark.parametrize("discount", [-0.5, 1.0, 1.2])
@pytest.mark.parametrize("method", ["grid", "exact"])
def test_residual_solve_rejects_discount_outside_unit_interval(
        capsys, tmp_path, method, discount):
    """No residual is ever reached outside 0 <= rho < 1, so a residual
    solve exits 2 at once instead of reporting one sweep or running on."""
    m = gen_example("ex1")
    path = tmp_path / "bad.json"
    save_model(PomdpModel(name="bad", discount=discount,
                          transition=m.transition, observation=m.observation,
                          reward=m.reward), path)
    assert main(["solve", str(path), "--method", method, "--grid", "5",
                 "--residual", "1e-2"]) == 2
    assert "discount in [0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "verify", "compare"])
def test_non_finite_residual_exits_two(capsys, ex1_path, command):
    """An infinite residual target used to pass as positive: `solve` exited
    0 after one backup, `verify` and `compare` failed only when writing the
    report."""
    models = [ex1_path] * (2 if command == "compare" else 1)
    assert main([command, *models, "--grid", "5", "--residual", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "residual must be positive and finite" in captured.err


@pytest.mark.parametrize("command, models", [
    ("verify", [("ex1", {})]),
    ("compare", [("hierarchical", {}), ("hierarchical", {"garbled": True})])])
def test_slack_budget_rejects_negative_discount(capsys, tmp_path, command,
                                                models):
    """The slack of `verify` and `compare` bounds nothing for a negative
    discount; at -0.5 and horizon 5 it read negative and both exited 1."""
    paths = []
    for k, (name, params) in enumerate(models):
        m = gen_example(name, **params)
        paths.append(str(tmp_path / f"negative{k}.json"))
        save_model(PomdpModel(name="negative", discount=-0.5,
                              transition=m.transition,
                              observation=m.observation, reward=m.reward),
                   paths[-1])
    assert main([command, *paths, "--grid", "10", "--horizon", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "discount in [0, 1)" in captured.err


def test_horizon_solve_allows_discount_above_one(capsys, tmp_path):
    m = gen_example("ex1")
    path = tmp_path / "bad.json"
    save_model(PomdpModel(name="bad", discount=1.2, transition=m.transition,
                          observation=m.observation, reward=m.reward), path)
    code, doc = run_json(capsys, ["solve", str(path), "--horizon", "3"])
    assert code == 0 and doc["horizon"] == 3


# ---------------------------------------------------------------------------
# verify / compare
# ---------------------------------------------------------------------------

def test_verify_exits_zero_on_ex1(tmp_path, ex1_path):
    out = tmp_path / "report.json"
    code = main(["verify", ex1_path, "--grid", "25", "--horizon", "50",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["theorem1"]["dominance"]["violations"] == []
    assert doc["theorem1"]["applicable"] is True
    assert doc["psi"]["min"] >= -1e-9


def test_compare_hierarchical_pair(tmp_path, capsys):
    strong = tmp_path / "s.json"
    weak = tmp_path / "w.json"
    save_model(gen_example("hierarchical"), strong)
    save_model(gen_example("hierarchical", garbled=True), weak)
    code, doc = run_json(capsys, ["compare", str(strong), str(weak),
                                  "--grid", "15", "--horizon", "40"])
    assert code == 0
    assert doc["hypotheses_hold"] is True
    assert doc["min_gap"] >= -doc["slack"]
    code, doc = run_json(capsys, ["compare", str(strong), str(strong),
                                  "--grid", "10", "--horizon", "10"])
    assert code == 0
    assert doc["min_gap"] == 0.0 and doc["mean_gap"] == 0.0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_horizon_zero_reports_are_strict_json(capsys, ex1_path):
    code = main(["verify", ex1_path, "--grid", "5", "--horizon", "0"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 0
    assert doc["achieved_residual"] is None
    code = main(["compare", ex1_path, ex1_path, "--grid", "5",
                 "--horizon", "0"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 0
    assert doc["achieved_residuals"] == [None, None]


def test_non_finite_report_value_is_refused(tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(ValueError):
        _emit({"value": float("inf")}, str(out))
    assert not out.exists()


def test_compare_dimension_mismatch_exits_two(tmp_path, ex1_path):
    other = tmp_path / "tri.json"
    save_model(gen_example("tridiagonal"), other)
    assert main(["compare", ex1_path, str(other), "--grid", "5",
                 "--horizon", "2"]) == 2


# ---------------------------------------------------------------------------
# Parser text: main builds one subcommand's parser when argv names it first
# ---------------------------------------------------------------------------

_COMMAND_LINES = [
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "x.json"],
    ["solve", "m.json", "--method", "bogus"],
    ["verify", "m.json", "--grid", "x"],
    ["compare", "a.json", "b.json", "--horizon", "3", "--residual", "1e-8"],
] + [line for name, positionals in (
        ("validate", ["m.json"]), ("check", ["m.json"]), ("solve", ["m.json"]),
        ("verify", ["m.json"]), ("compare", ["a.json", "b.json"]),
        ("gen", ["ex1"]))
     for line in ([name, "-h"], [name], [name, *positionals, "--bogus"])]


def _parse_outcome(capsys, parse):
    try:
        parse()
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", _COMMAND_LINES, ids=" ".join)
def test_parser_text_matches_the_full_parser(capsys, argv):
    """Help, usage and error text, and the exit code, are those of the
    parser that knows every subcommand."""
    expected = _parse_outcome(capsys, lambda: build_parser().parse_args(argv))
    assert expected[0] in (0, 2)
    assert _parse_outcome(capsys, lambda: main(argv)) == expected


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_round_trip_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["gen", "tridiagonal", "--param", "num_states=5",
                 "--param", "p=0.55", "--out", str(first)]) == 0
    from pomdpcheck import load_model, model_to_json
    second.write_text(model_to_json(load_model(first)))
    assert first.read_text() == second.read_text()


def test_gen_rejects_invalid_params():
    assert main(["gen", "tridiagonal", "--param", "q=0.9",
                 "--param", "p=0.6"]) == 2
    assert main(["gen", "tridiagonal", "--param", "q_boundary=0.4"]) == 2
    assert main(["gen", "hierarchical", "--param", "levels=0"]) == 2
    assert main(["gen", "hierarchical", "--param", "bogus=1"]) == 2
    # the parser leaves "no" and "off" strings and makes "true" a bool
    for param in ("garbled=no", "garbled=off", "garbled=1", "levels=true",
                  "levels=2.0"):
        assert main(["gen", "hierarchical", "--param", param]) == 2
    # ... and tridiagonal must not read a bool as 0 or 1, nor 3.0 as 3
    for param in ("q=false", "p=true", "q_boundary=true", "num_states=true",
                  "num_states=3.0", "p=high"):
        assert main(["gen", "tridiagonal", "--param", param]) == 2


def test_gen_unknown_name_rejected_by_parser():
    with pytest.raises(SystemExit):
        main(["gen", "no_such_example"])


def test_gen_stdout(capsys, tmp_path):
    code = main(["gen", "ex1"])
    assert code == 0
    text = capsys.readouterr().out
    assert json.loads(text)["observation"][0][0] == [0.8, 0.2, 0.0]
    assert main(["gen", "ex1", "--out", str(tmp_path / "ex1.json")]) == 0
    assert (tmp_path / "ex1.json").read_bytes() == text.encode("utf-8")


# ---------------------------------------------------------------------------
# Console entry point
# ---------------------------------------------------------------------------

def run_child(args, **env):
    """Run ``python args`` in a fresh interpreter that imports the same
    ``pomdpcheck`` as this one, with ``env`` over this process's
    environment; a value of None removes that variable."""
    child = dict(os.environ)
    source = str(Path(pomdpcheck.__file__).resolve().parents[1])
    child["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, child.get("PYTHONPATH")]))
    for name, value in env.items():
        if value is None:
            child.pop(name, None)
        else:
            child[name] = value
    return subprocess.run([sys.executable, *args], env=child,
                          capture_output=True, text=True)


def test_module_entry_point(tmp_path):
    path = tmp_path / "m.json"
    save_model(gen_example("ex1"), path)
    proc = run_child(["-m", "pomdpcheck.cli", "validate", str(path)])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


# Reports the variable and, where the kernel lists them, the thread count
# just after the import.
THREADS_AFTER_IMPORT = """
import json, os
import pomdpcheck
task = "/proc/self/task"
print(json.dumps({
    "value": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
}))
"""


def test_import_pins_one_blas_thread_by_default():
    # The suite's own process already set the variable; the child starts
    # without it, as a shell that never set it would.
    proc = run_child(["-c", THREADS_AFTER_IMPORT], OPENBLAS_NUM_THREADS=None)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["value"] == "1"
    if doc["threads"] is not None:
        assert doc["threads"] == 1


def test_import_keeps_an_explicit_blas_thread_count():
    proc = run_child(["-c", THREADS_AFTER_IMPORT], OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == "2"


# ---------------------------------------------------------------------------
# Package surface
# ---------------------------------------------------------------------------

def test_readme_entry_points_are_exported():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Key entry points:"):].split("\n\n")[0]
    names = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert len(names) >= 30
    missing = [n for n in names if n not in pomdpcheck.__all__]
    assert missing == []
    unlisted = set(pomdpcheck.__all__) - set(names) - {"__version__"}
    assert unlisted == set()
    assert len(names) == len(set(names))
    assert all(callable(getattr(pomdpcheck, n)) for n in names)


def test_readme_model_format_block_loads_ex1():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Model JSON format"):]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert model_to_json(loads_model(block)) == \
        model_to_json(gen_example("ex1"))
