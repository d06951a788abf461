"""Capture the seed-0 reference outputs that ``checker.py`` compares against.

Usage (from the root of a checkout): python3 bench/make_reference.py [NAME...]

Runs each named workload's commands once (all workloads by default) with
the bundled fixtures and writes ``bench/reference/<workload>.json`` as
``{label: {"exit": code, "output": document}}``. Recapture only when a
change is meant to alter reported verdicts or numbers, and say so.
"""

import json
import os
import shutil
import sys
import time

import checker
from run import WORK_DIR, Runner
from workloads import WORKLOADS


def capture(name: str) -> dict:
    work = os.path.join(WORK_DIR, f"reference-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    runner = Runner(WORKLOADS[name], 0, work, time.monotonic() + 600.0, {})
    reference = {}
    try:
        for index, command in enumerate(WORKLOADS[name].commands):
            result = runner.spawn("run", index)
            problem = result.get("failure") or result["error"]
            if problem:
                raise RuntimeError(f"{command.label}: {problem}")
            with open(result["out"], encoding="utf-8") as fh:
                reference[command.label] = {"exit": result["exit"],
                                            "output": json.load(fh)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return reference


def main(names) -> int:
    os.makedirs(checker.REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        reference = capture(name)
        path = os.path.join(checker.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
