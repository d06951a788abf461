"""The benchmark's correctness gate, run in process: every seed-0 command of
every workload in ``bench/workloads.py`` must pass ``bench/checker.py``
against its reference output in ``bench/reference/``.  Only reads
``bench/``."""

import sys
from pathlib import Path

import pytest

from pomdpcheck.cli import main

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import checker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed0_outputs_match_the_benchmark_reference(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    reference = checker.load_reference(name)
    for command in workload.commands:
        model = str(tmp_path / f"{command.label}.model.json")
        out = str(tmp_path / f"{command.label}.out.json")
        assert main(workloads.gen_argv(command.model, 0, model)) == 0
        cmd, *rest = command.args
        code = main([cmd, model, *rest, "--out", out])
        assert checker.check_command(reference[command.label], cmd, False,
                                     code, out) == []
