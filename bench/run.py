"""Cold-process CLI benchmark for pomdpcheck.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass runs its workload's ``pomdpcheck`` commands one after another, each
in a fresh interpreter (closed loop, one client). ``--trace 0`` repeats
passes while another one still fits in ``--seconds`` (at least one) and
reports the end-to-end metrics. ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics of the traced one. Every
pass's outputs are checked (``checker.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (passes)
and ``metrics``. Earlier lines give the environment and per-pass detail;
the full record goes to ``bench/.work/results/`` and the spans of a traced
run to ``bench/.work/traces/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checker
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

SETUP_PROBES = 7        # set-up-only processes per run, besides the passes'
HARD_LIMIT_S = 150.0    # start no pass that would end after this
CHILD_TIMEOUT_S = 170.0
MIB = float(2 ** 20)

# Per-layer self-time metrics: metric stem -> the span names it sums.
SELF_TIMES = {
    "model.belief_grid": ("model.belief_grid",),
    "model.load_model": ("model.load_model",),
    "orders.is_copositive": ("orders.is_copositive",),
    "orders.factorization": ("orders.blackwell_dominates",
                             "orders.reverse_factorization"),
    "lp.lp_solve": ("lp.lp_solve",),
    "solver.grid_backup": ("solver.grid_backup",),
    "solver.pointwise_filter": ("solver.pointwise_filter",),
    "solver.exact_backup": ("solver.exact_backup",),
    "solver.prune": ("solver.prune",),
    "solver.batch_margins": ("solver.batch_margins",),
    "solver.streaming_top2": ("solver.streaming_top2",),
    "solver.sup_residual": ("solver.sup_residual",),
    "structural.q_batch": ("structural.q_batch",),
    "structural.psi_sweep": ("structural.psi_sweep",),
    "structural.range_containment": ("structural.range_containment",),
    "structural.value_shape": ("structural.value_shape",),
    "structural.dominance": ("structural.dominance",),
    "cli.emit": ("cli.emit",),
    "cli.glue": ("cli.cmd",),
}
CALLS = ("orders.is_copositive", "lp.lp_solve", "solver.grid_backup",
         "solver.batch_margins")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    import numpy
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                func.restype = ctypes.c_int
                func.argtypes = []
                info["threads"] = int(func())
                return info
    return info


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC_DIR, "pomdpcheck")
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Processes and passes
# ---------------------------------------------------------------------------

class Runner:
    """Starts the benchmark's processes one at a time and checks passes."""

    def __init__(self, workload, seed: int, work: str, deadline: float,
                 reference: dict):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.reference = reference
        self.setup_samples: list[float] = []
        self._serial = 0

    def spawn(self, mode: str, command: int = 0, trace: bool = False) -> dict:
        """Run one child process; returns its result plus ``setup_s``."""
        self._serial += 1
        stem = os.path.join(self.work, f"{self._serial:03d}")
        spec = {"workload": self.workload.name, "command": command,
                "seed": self.seed, "mode": mode, "trace": trace,
                "model_path": stem + "-model.json", "out": stem + "-out.json",
                "result": stem + "-result.json"}
        timeout = max(1.0, min(CHILD_TIMEOUT_S,
                               self.deadline - time.monotonic()))
        launched = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)],
                                cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"failure": f"timed out after {timeout:.0f} s"}
        except BaseException:           # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            return {"failure": f"child exited {proc.returncode}: "
                               f"{stderr.strip()[-2000:]}"}
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["t_ready"] - launched
        result["out"] = spec["out"]
        return result

    def setup_probe(self) -> None:
        result = self.spawn("setup")
        if "failure" in result:
            raise RuntimeError(f"set-up probe failed: {result['failure']}")
        self.setup_samples.append(result["setup_s"])

    def run_pass(self, trace: bool = False) -> dict:
        started = time.monotonic()
        calls, problems = [], []
        for index, command in enumerate(self.workload.commands):
            result = self.spawn("run", index, trace)
            result["label"] = command.label
            calls.append(result)
            if "failure" in result:
                problems.append(f"{command.label}: {result['failure']}")
                continue
            if not trace:
                self.setup_samples.append(result["setup_s"])
            if result["error"]:
                problems.append(f"{command.label}: {result['error']}")
                continue
            for problem in checker.check_command(
                    self.reference[command.label], command.args[0],
                    self.workload.seeded and self.seed != 0,
                    result["exit"], result["out"]):
                problems.append(f"{command.label}: {problem}")
        timed = all("wall_s" in c for c in calls)
        return {
            "trace": trace,
            "ok": not problems,
            "problems": problems,
            "duration_s": time.monotonic() - started,
            "wall_s": sum(c["wall_s"] for c in calls) if timed else None,
            "cpu_s": sum(c["cpu_s"] for c in calls) if timed else None,
            "peak_rss_mb":
                max(c["peak_rss_mb"] for c in calls) if timed else None,
            "calls": calls,
        }


def _same_outputs(first: dict, second: dict) -> list[str]:
    """Differences between two passes' exit codes and output bytes."""
    problems = []
    for a, b in zip(first["calls"], second["calls"]):
        if "out" not in a or "out" not in b:
            problems.append(f"{a['label']}: no output to compare")
            continue
        if a["exit"] != b["exit"]:
            problems.append(
                f"{a['label']}: exit {a['exit']}, traced {b['exit']}")
        with open(a["out"], "rb") as fa, open(b["out"], "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{a['label']}: traced output differs")
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(passes: list[dict], setup_samples: list[float]) -> dict:
    timed = [p for p in passes if p["wall_s"] is not None]

    def med(key):
        return statistics.median(p[key] for p in timed) if timed else 0.0

    return {
        "wall_s": _metric(med("wall_s"), "s"),
        "cpu_s": _metric(med("cpu_s"), "s"),
        "peak_rss_mb": _metric(med("peak_rss_mb"), "MB"),
        "setup_s": _metric(statistics.median(setup_samples)
                           if setup_samples else 0.0, "s"),
    }


def self_times(spans: list) -> tuple[dict, dict]:
    """Per span name: summed self time and call count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start - inner)
        calls[name] = calls.get(name, 0) + 1
    return totals, calls


def per_layer_metrics(traced: dict, untraced: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced pass, and the merged raw trace data."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    for call in traced["calls"]:
        trace = call.get("trace")
        if not trace:
            continue
        t, c = self_times(trace["spans"])
        for name, value in t.items():
            totals[name] = totals.get(name, 0.0) + value
        for name, value in c.items():
            calls[name] = calls.get(name, 0) + value
        for name, value in trace["counters"].items():
            if name.endswith(("_max", "_final")):
                counters[name] = max(counters.get(name, value), value)
            else:
                counters[name] = counters.get(name, 0) + value

    def ratio(num, den):
        den = counters.get(den, 0)
        return counters.get(num, 0) / den if den else 0.0

    metrics = {}
    for name, spans in SELF_TIMES.items():
        metrics[f"{name}.self_s"] = _metric(
            sum(totals.get(s, 0.0) for s in spans), "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = _metric(calls.get(name, 0), "count")
    for name in ("model.belief_grid.points", "orders.undetermined",
                 "lp.lp_solve.numerical_failures",
                 "solver.grid_backup.vectors_max",
                 "solver.grid_backup.vectors_final",
                 "solver.batch_margins.candidates",
                 "solver.exact.vectors_final"):
        metrics[name] = _metric(counters.get(name, 0), "count")
    sweeps = calls.get("solver.grid_backup", 0)
    margin_calls = calls.get("solver.batch_margins", 0)
    metrics["solver.grid_backup.score_mb"] = _metric(
        counters.get("solver.grid_backup.score_bytes", 0) / MIB / sweeps
        if sweeps else 0.0, "MB")
    metrics["solver.batch_margins.tableau_mb"] = _metric(
        counters.get("solver.batch_margins.tableau_bytes", 0) / MIB
        / margin_calls if margin_calls else 0.0, "MB")
    metrics["solver.pointwise_filter.kept_ratio"] = _metric(
        ratio("solver.pointwise_filter.rows_kept",
              "solver.pointwise_filter.rows_in"), "ratio")
    metrics["solver.prune.kept_ratio"] = _metric(
        ratio("solver.prune.rows_kept", "solver.prune.rows_in"), "ratio")
    metrics["cli.emit.bytes"] = _metric(counters.get("cli.emit.bytes", 0),
                                        "bytes")
    traced_wall = traced["wall_s"] or 0.0
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(
        traced_wall - (untraced["wall_s"] or 0.0), "s")
    raw = {"self_s": totals, "calls": calls, "counters": counters}
    return metrics, raw


def coverage_problems(workload, raw: dict, traced: dict) -> list[str]:
    """Self-test: the workload's assigned functions were seen and wrapped."""
    problems = [f"{name}: never called" for name in workload.expected_spans
                if not raw["calls"].get(name)]
    for call in traced["calls"]:
        trace = call.get("trace") or {}
        problems += [f"{call['label']}: {name} not found"
                     for name in trace.get("missing", [])]
        problems += [f"{call['label']}: observer {err}"
                     for err in trace.get("observer_errors", [])]
    return problems


def write_spans(path: str, passes: list[dict]) -> None:
    """All spans of the run as [name, start, end, parent, pass, command]."""
    rows = []
    for pass_id, record in enumerate(passes):
        for call in record["calls"]:
            base = len(rows)
            for name, start, end, parent in (call.get("trace") or {}).get(
                    "spans", []):
                rows.append([name, start, end,
                             base + parent if parent >= 0 else -1,
                             pass_id, call["label"]])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "pass",
                               "command"], "spans": rows}, fh)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    t_begin = time.monotonic()
    if not os.path.isfile(os.path.join(SRC_DIR, "pomdpcheck", "cli.py")):
        print(f"bench: no pomdpcheck sources at {SRC_DIR}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args)
    print(json.dumps({"environment": env}), flush=True)

    work = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(workload, args.seed, work, t_begin + HARD_LIMIT_S + 20.0,
                    checker.load_reference(workload.name))
    passes: list[dict] = []
    try:
        warm = runner.spawn("warmup")
        if "failure" in warm:
            print(f"bench: cannot start pomdpcheck: {warm['failure']}",
                  file=sys.stderr)
            return 2
        extra: list[str] = []
        if args.trace:
            untraced = runner.run_pass()
            traced = runner.run_pass(trace=True)
            passes = [untraced, traced]
            metrics, raw = per_layer_metrics(traced, untraced)
            extra = _same_outputs(untraced, traced)
            coverage = coverage_problems(workload, raw, traced)
        else:
            for _ in range(SETUP_PROBES):
                runner.setup_probe()
            while True:
                passes.append(runner.run_pass())
                elapsed = time.monotonic() - t_begin
                estimate = statistics.median(p["duration_s"] for p in passes)
                if (elapsed + estimate > args.seconds
                        or elapsed + estimate > HARD_LIMIT_S):
                    break
            metrics = end_to_end_metrics(passes, runner.setup_samples)
            raw, coverage = None, None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not p["ok"] for p in passes)
    correct = failed == 0 and not extra
    detail = {
        "passes": [{k: p[k] for k in ("trace", "ok", "problems", "duration_s",
                                      "wall_s", "cpu_s", "peak_rss_mb")}
                   for p in passes],
        "setup_samples_s": runner.setup_samples,
        "traced_vs_untraced": extra if args.trace else None,
        "trace_coverage_problems": coverage,
    }
    print(json.dumps({"detail": detail}), flush=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    with open(os.path.join(WORK_DIR, "results", stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": env, "detail": detail, "metrics": metrics,
                   "trace_raw": raw}, fh, indent=1)
    if args.trace:
        os.makedirs(os.path.join(WORK_DIR, "traces"), exist_ok=True)
        write_spans(os.path.join(WORK_DIR, "traces", stem + ".json"), passes)

    print(json.dumps({"correct": correct, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
