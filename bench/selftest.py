"""Self-test of the benchmark's tracer and output checker.

Usage (from the root of a checkout): python3 bench/selftest.py [--full]

Quick checks (a few seconds):

* the tracer rebinds every alias of each traced function (module attributes
  and module-level dict entries such as the CLI's command table), keeps
  ``belief_grid``'s cache behind its wrapper, and restores everything;
* small CLI commands give byte-identical output traced and untraced, and
  their spans are recorded;
* the checker accepts each reference against itself and rejects
  deliberately altered copies.

``--full`` also makes one traced run per workload through ``run.py`` and
requires that every function the workload is assigned gets calls, that
traced and untraced outputs match, and that the output checks pass.
Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import checker
from child import SRC_DIR
from run import BENCH_DIR, ROOT, WORK_DIR
from tracer import Tracer
from workloads import WORKLOADS

FAILURES: list[str] = []
TRACED_COMMANDS = ("check", "solve", "verify")


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def test_aliases() -> None:
    sys.path.insert(0, SRC_DIR)
    from pomdpcheck import cli, model, orders, solver, structural
    modules = (cli, model, orders, solver, structural)
    originals = {name: [(mod, getattr(mod, name)) for mod in modules
                        if hasattr(mod, name)]
                 for name in ("belief_grid", "_q_batch", "load_model",
                              "blackwell_dominates")}
    commands = dict(cli._COMMANDS)
    tracer = Tracer()
    tracer.install()
    try:
        expect(not tracer.missing, f"every target found (missing: "
                                   f"{tracer.missing})")
        expect(tracer.rebound.get("model.belief_grid", 0) >= 5,
               "belief_grid rebound in model, orders, solver, structural, cli")
        expect(tracer.rebound.get("solver._q_batch", 0) >= 3,
               "_q_batch rebound in solver, structural, cli")
        for name, holders in originals.items():
            wrapped = {id(getattr(mod, name)) for mod, _ in holders}
            expect(len(wrapped) == 1 and all(getattr(mod, name) is not fn
                                             for mod, fn in holders),
                   f"all {len(holders)} aliases of {name} share one wrapper")
        expect(all(cli._COMMANDS[k] is not commands[k]
                   for k in TRACED_COMMANDS),
               "CLI command table entries wrapped")
        model.belief_grid.cache_clear()
        orders.belief_grid(3, 7)
        solver.belief_grid(3, 7)
        info = model.belief_grid.cache_info()
        expect(info.misses == 1 and info.hits == 1,
               f"belief_grid cache kept behind the wrapper ({info})")
        names = [span[0] for span in tracer.spans]
        expect(names.count("model.belief_grid") == 2,
               "each belief_grid call, cached or not, is a span")
        expect(tracer.report()["counters"]["model.belief_grid.points"] == 36,
               "belief_grid points counted once per distinct grid")
    finally:
        tracer.uninstall()
    for name, holders in originals.items():
        expect(all(getattr(mod, name) is fn for mod, fn in holders),
               f"{name} restored everywhere")
    expect(all(cli._COMMANDS[k] is commands[k] for k in commands),
           "CLI command table restored")


def test_traced_equals_untraced(work: str) -> None:
    from pomdpcheck import cli
    model_path = os.path.join(work, "ex1.json")
    cli.main(["gen", "ex1", "--out", model_path])
    cases = {
        "check": (["check", model_path], ("orders.is_copositive",
                                          "orders.blackwell_dominates",
                                          "lp.lp_solve", "model.load_model")),
        "verify": (["verify", model_path, "--grid", "12",
                    "--residual", "1e-3"],
                   ("solver.grid_backup", "structural.q_batch",
                    "structural.psi_sweep", "structural.dominance",
                    "structural.range_containment", "structural.value_shape")),
        "solve": (["solve", model_path, "--method", "exact", "--horizon", "3"],
                  ("solver.exact_backup", "solver.prune",
                   "solver.batch_margins", "solver.streaming_top2",
                   "solver.sup_residual", "solver.pointwise_filter")),
    }
    for label, (argv, spans) in cases.items():
        plain, traced = (os.path.join(work, f"{label}-{k}.json")
                         for k in ("plain", "traced"))
        code_plain = cli.main(argv + ["--out", plain])
        tracer = Tracer()
        tracer.install()
        try:
            code_traced = cli.main(argv + ["--out", traced])
        finally:
            tracer.uninstall()
        with open(plain, "rb") as fa, open(traced, "rb") as fb:
            same = fa.read() == fb.read()
        expect(same and code_plain == code_traced,
               f"{label}: traced output and exit code equal untraced")
        seen = {span[0] for span in tracer.spans}
        expect(set(spans) <= seen and "cli.cmd" in seen and "cli.emit" in seen,
               f"{label}: spans recorded for {', '.join(spans)}")
        expect(not tracer.rec.observer_errors,
               f"{label}: no observer errors {tracer.rec.observer_errors}")


def _rejects(reference: dict, command: str, altered_output: dict,
             altered_exit, work: str) -> bool:
    path = os.path.join(work, "altered.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(altered_output, fh)
    return bool(checker.check_command(reference, command, False,
                                      altered_exit, path))


def test_checker(work: str) -> None:
    for name, workload in sorted(WORKLOADS.items()):
        reference = checker.load_reference(name)
        for command in workload.commands:
            entry = reference[command.label]
            out = entry["output"]
            kind = command.args[0]
            expect(not _rejects(entry, kind, out, entry["exit"], work),
                   f"{command.label}: reference passes against itself")
            expect(_rejects(entry, kind, out, entry["exit"] + 1, work),
                   f"{command.label}: altered exit code rejected")
            flat = checker.flatten(out)
            exact = next(k for k, (rule, _) in flat.items() if rule == "exact")
            altered = copy.deepcopy(out)
            _flip(altered, exact)
            expect(_rejects(entry, kind, altered, entry["exit"], work),
                   f"{command.label}: altered {exact} rejected")
            section = exact.split("/")[1]
            missing = {k: v for k, v in out.items() if k != section}
            expect(_rejects(entry, kind, missing, entry["exit"], work),
                   f"{command.label}: missing section {section} rejected")
        if name == "verify-ex2-g35":
            out = copy.deepcopy(reference["verify-ex2"]["output"])
            out["theorem1"]["dominance"]["min_margin"] += 1e-6
            expect(_rejects(reference["verify-ex2"], "verify", out, 0, work),
                   "verify: min_margin off by 1e-6 rejected")
        if name == "exact-ex1-h11":
            out = copy.deepcopy(reference["solve-ex1"]["output"])
            out["vectors"][0]["values"][0] += 1e-6
            out["vectors"].sort(key=lambda v: v["values"])
            expect(_rejects(reference["solve-ex1"], "solve", out, 0, work),
                   "solve: envelope moved by 1e-6 rejected")
            out = copy.deepcopy(reference["solve-ex1"]["output"])
            out["vectors"].append({"values": [-1.0, -1.0, -1.0], "action": 1})
            expect(not _rejects(reference["solve-ex1"], "solve", out, 0, work),
                   "solve: a dominated extra vector is accepted")


def _flip(doc, path: str) -> None:
    keys = [k for k in path.split("/") if k]
    for key in keys[:-1]:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    last = keys[-1]
    value = doc[last]
    doc[last] = (not value) if isinstance(value, bool) else "altered"


def test_full_runs() -> None:
    for name in sorted(WORKLOADS):
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
             name, "--seed", "0", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=400, check=False)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
        except (IndexError, json.JSONDecodeError):
            expect(False, f"{name}: traced run printed a result "
                          f"(stderr: {done.stderr[-500:]})")
            continue
        expect(result["correct"], f"{name}: traced run correct, traced output "
                                  f"equals untraced {detail['passes']}")
        expect(not detail["trace_coverage_problems"],
               f"{name}: assigned functions all called "
               f"{detail['trace_coverage_problems']}")


def main(argv) -> int:
    work = os.path.join(WORK_DIR, f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        test_aliases()
        test_traced_equals_untraced(work)
        test_checker(work)
        if "--full" in argv:
            test_full_runs()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
