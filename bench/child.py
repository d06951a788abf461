"""One benchmark process: set up, time one ``pomdpcheck.cli.main`` call, exit.

Usage: python3 bench/child.py '<spec JSON>'

The spec names the workload and the index of the command in its pass, the
seed, the model file to write, the output and result paths, and whether to
trace. Everything before the timed call (interpreter start, imports,
writing the model file, installing the tracer) is set-up. ``run.py``
measures it from its own clock reading, taken just before it started this
process, up to ``t_ready`` below; both are ``time.monotonic``. Inside the
timed call the process does exactly what the ``pomdpcheck`` command would
do.

The result, a JSON object, goes to ``spec["result"]``.
"""

import json
import os
import resource
import sys
import time
import traceback

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)   # all threads
    return usage.ru_utime + usage.ru_stime


def _import_cli():
    """Import the checkout's own pomdpcheck, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC_DIR, "pomdpcheck", "cli.py")):
        raise RuntimeError(f"no pomdpcheck sources under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    from pomdpcheck import cli
    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(SRC_DIR) + os.sep):
        raise RuntimeError(f"imported pomdpcheck from {where}, not {SRC_DIR}")
    return cli


def _write_model(cli, model, seed: int, path: str) -> None:
    argv = workloads.gen_argv(model, seed, path)
    if cli.main(argv) != 0:
        raise RuntimeError(f"pomdpcheck {' '.join(argv)} failed")
    workloads.perturb_model_file(model, seed, path)


def _compile_bytecode() -> None:
    """Write the .pyc files an installed package would have, even where
    PYTHONDONTWRITEBYTECODE is set, so every process's set-up loads them."""
    import compileall
    compileall.compile_dir(os.path.join(SRC_DIR, "pomdpcheck"), quiet=1)
    compileall.compile_dir(BENCH_DIR, maxlevels=0, quiet=1)


def run(spec: dict) -> dict:
    if spec["mode"] == "warmup":
        _compile_bytecode()
    cli = _import_cli()
    if spec["mode"] == "warmup":
        return {"t_ready": time.monotonic()}
    command = workloads.WORKLOADS[spec["workload"]].commands[spec["command"]]
    _write_model(cli, command.model, spec["seed"], spec["model_path"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t_ready = time.monotonic()
    if spec["mode"] == "setup":
        return {"t_ready": t_ready}

    args = command.args
    argv = [args[0], spec["model_path"], *args[1:], "--out", spec["out"]]
    error = None
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:           # argparse rejects its arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:                   # reported as a failed pass
        code, error = None, traceback.format_exc()
    finally:
        wall1, cpu1 = time.perf_counter(), _cpu_seconds()
        if tracer is not None:
            tracer.uninstall()
    result = {
        "t_ready": t_ready,
        "exit": code,
        "error": error,
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        # ru_maxrss is KiB on Linux: the process's peak, set-up included.
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        result = run(spec)
    except Exception:
        traceback.print_exc()
        return 3
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
