"""Workload definitions: the CLI commands of one pass and their seeded inputs.

A pass is a fixed list of ``pomdpcheck`` commands. Each command runs in its
own fresh interpreter (see ``child.py``), because ``model.belief_grid`` is an
in-process cache: a user pays its cold cost on every invocation, and a
repeat loop inside one process would hide it.

Seed 0 runs the bundled fixtures unchanged. Other seeds perturb the inputs as
described on each workload; the program only ever sees the generated model
files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelSpec:
    """How to write one model file: ``pomdpcheck gen`` plus a seeded change.

    ``seeded`` names the change applied for seeds other than 0:
    ``None`` (the fixture as bundled), ``"sensor"`` (scale every nonzero
    observation entry by a factor in 1 +- 0.01, renormalise the rows) or
    ``"tridiagonal"`` (draw p, q and q_boundary in their valid ranges).
    """

    example: str
    params: tuple[tuple[str, object], ...] = ()
    seeded: str | None = None


@dataclass(frozen=True)
class Command:
    label: str          # key of this command in the reference file
    model: ModelSpec
    args: tuple[str, ...]  # CLI arguments after the model path


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # Functions the tracer must see called on this workload (self-test).
    expected_spans: tuple[str, ...] = ()

    @property
    def seeded(self) -> bool:
        """False when every input ignores the seed."""
        return any(c.model.seeded for c in self.commands)


SENSOR_JITTER = 0.01

WORKLOADS = {
    w.name: w for w in (
        # At grid 35 the carried set (560-580 vectors) passes the solver's
        # 512-vector trim threshold, so both grid-solver steps run; at grid
        # 30 it stays below it and the trim never runs.
        Workload(
            name="verify-ex2-g35",
            commands=(Command(
                label="verify-ex2",
                model=ModelSpec("ex2", seeded="sensor"),
                args=("verify", "--grid", "35", "--residual", "1e-8")),),
            expected_spans=(
                "solver.grid_backup", "solver.pointwise_filter",
                "structural.q_batch", "structural.psi_sweep",
                "structural.range_containment", "structural.value_shape",
                "structural.dominance", "model.belief_grid",
                "model.load_model", "cli.emit", "cli.cmd")),
        # Ignores the seed: a +-1% perturbation of ex1's sensors moves the
        # envelope from 301 to 310-365 vectors and the time by up to +40%,
        # so a seeded run would be a different workload size.
        Workload(
            name="exact-ex1-h11",
            commands=(Command(
                label="solve-ex1",
                model=ModelSpec("ex1"),
                args=("solve", "--method", "exact", "--horizon", "11")),),
            expected_spans=(
                "solver.exact_backup", "solver.prune", "solver.batch_margins",
                "solver.streaming_top2", "solver.sup_residual",
                "solver.pointwise_filter", "model.load_model", "cli.emit",
                "cli.cmd")),
        Workload(
            name="check-tri3",
            commands=(
                Command(label="check-tri3",
                        model=ModelSpec("tridiagonal", (("num_states", 3),),
                                        seeded="tridiagonal"),
                        args=("check",)),
                Command(label="check-ex1", model=ModelSpec("ex1"),
                        args=("check",)),
                Command(label="check-reversed_factor",
                        model=ModelSpec("reversed_factor"), args=("check",)),
                Command(label="check-hierarchical",
                        model=ModelSpec("hierarchical"), args=("check",)),
            ),
            expected_spans=(
                "model.belief_grid", "model.load_model",
                "orders.is_copositive", "orders.blackwell_dominates",
                "orders.reverse_factorization", "lp.lp_solve", "cli.emit",
                "cli.cmd")),
    )
}


def gen_params(spec: ModelSpec, seed: int) -> dict:
    """Generator parameters for ``pomdpcheck gen`` under this seed."""
    params = dict(spec.params)
    if seed and spec.seeded == "tridiagonal":
        rng = random.Random(f"tridiagonal:{seed}")
        p = rng.uniform(0.05, 0.95)
        params["p"] = p
        params["q"] = rng.uniform(0.0, (1.0 + p) / 2.0)
        params["q_boundary"] = p + (1.0 - p) * (1.0 - rng.random())  # (p, 1]
    return params


def gen_argv(spec: ModelSpec, seed: int, path: str) -> list[str]:
    argv = ["gen", spec.example, "--out", path]
    for name, value in gen_params(spec, seed).items():
        argv += ["--param", f"{name}={value!r}"]
    return argv


def perturb_model_file(spec: ModelSpec, seed: int, path: str) -> None:
    """Apply the seeded sensor change to a written model file in place."""
    if not seed or spec.seeded != "sensor":
        return
    rng = random.Random(f"sensor:{seed}")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for matrix in doc["observation"]:
        for r, row in enumerate(matrix):
            scaled = [x * (1.0 + rng.uniform(-SENSOR_JITTER, SENSOR_JITTER))
                      if x else 0.0 for x in row]
            total = sum(scaled)
            matrix[r] = [x / total for x in scaled]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
