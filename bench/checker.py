"""Output checks for one benchmark command.

Seed 0 compares against reference outputs captured from the code the
benchmark was defined on (``reference/<workload>.json``):

* exit codes match;
* every ``holds``, ``*_ok`` and ``applicable`` / ``*_applicable`` field
  matches exactly, and so does every violation count (the lengths of the
  ``violations`` and ``failures`` lists);
* ``min_margin``, ``min_gap``, the psi minima and endpoints and the
  residuals agree within ``ABS_TOL``;
* for a ``solve``, the envelope of the emitted vectors matches the
  reference envelope at every belief of the resolution-100 grid within
  ``ABS_TOL``.

Witnesses, vector counts and fields the reference does not have (timing or
run blocks added later) are never compared: a correct change may return a
different witness, or the same envelope with fewer vectors.

Other seeds change the inputs, so there is no reference to match. Their
check is that every section of the reference document is present, that the
exit code agrees with the violations reported, and that the psi endpoints
vanish (``PSI_ENDPOINT_TOL``). A workload that ignores its seed is held to
the reference on every seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

ABS_TOL = 1e-9
PSI_ENDPOINT_TOL = 1e-12
ENVELOPE_RESOLUTION = 100

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

_COUNTED = {"violations", "failures"}
_CLOSE = {"min_margin", "min_margin_per_pair", "min_gap", "minima_per_pair",
          "max_abs_psi_at_0", "max_abs_psi_at_1", "residual", "residuals",
          "grid_residuals", "achieved_residual", "achieved_residuals",
          "requested_residual"}
_SKIPPED = {"witness", "vectors"}


def _exact_key(key: str) -> bool:
    return (key in ("holds", "applicable") or key.endswith("_ok")
            or key.endswith("_applicable"))


def flatten(doc, path: str = "") -> dict:
    """Map each compared field's path to (rule, value)."""
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            where = f"{path}/{key}"
            if key in _SKIPPED:
                continue
            if key in _COUNTED and isinstance(value, list):
                out[where + "#count"] = ("exact", len(value))
            elif _exact_key(key):
                out[where] = ("exact", value)
            elif key in _CLOSE or (key == "min" and path.endswith("/psi")):
                out[where] = ("close", value)
            else:
                out.update(flatten(value, where))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out.update(flatten(value, f"{path}/{i}"))
    return out


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if a is None or b is None:
        return a is None and b is None
    try:
        return abs(float(a) - float(b)) <= ABS_TOL
    except (TypeError, ValueError):
        return False


def compare_docs(reference: dict, output: dict) -> list[str]:
    """Mismatches between an output document and its reference."""
    ref_flat, out_flat = flatten(reference), flatten(output)
    problems = []
    for where, (rule, expected) in ref_flat.items():
        if where not in out_flat:
            problems.append(f"{where}: missing")
            continue
        got = out_flat[where][1]
        same = got == expected if rule == "exact" else _close(got, expected)
        if not same:
            problems.append(f"{where}: {got!r} != reference {expected!r}")
    return problems


def simplex_grid(num_states: int, resolution: int) -> np.ndarray:
    """Every belief with coordinates in multiples of 1/resolution."""
    rows = []

    def fill(prefix, left, slots):
        if slots == 1:
            rows.append(prefix + [left])
            return
        for k in range(left + 1):
            fill(prefix + [k], left - k, slots - 1)

    fill([], resolution, num_states)
    return np.array(rows, dtype=float) / resolution


def envelope_problems(reference: dict, output: dict) -> list[str]:
    try:
        ref = np.array([v["values"] for v in reference["vectors"]],
                       dtype=float)
        got = np.array([v["values"] for v in output["vectors"]], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"vectors unreadable: {exc!r}"]
    if got.ndim != 2 or got.shape[1] != ref.shape[1]:
        return [f"vectors have shape {got.shape}, reference {ref.shape}"]
    beliefs = simplex_grid(ref.shape[1], ENVELOPE_RESOLUTION)
    gap = np.abs((beliefs @ got.T).max(axis=1) - (beliefs @ ref.T).max(axis=1))
    worst = float(gap.max())
    if not worst <= ABS_TOL:
        return [f"envelope differs from reference by {worst:.3e} at "
                f"{beliefs[int(np.argmax(gap))].tolist()}"]
    return []


def _sanity_problems(command: str, reference: dict, exit_code, output: dict
                     ) -> list[str]:
    problems = [f"section {key!r} missing" for key in reference
                if key not in output]
    if command == "verify":
        theorem1 = output.get("theorem1") or {}
        violations = (theorem1.get("dominance") or {}).get("violations")
        expected = 1 if theorem1.get("applicable") and violations else 0
    else:
        expected = 0
    if exit_code != expected:
        problems.append(f"exit {exit_code}, but the report implies {expected}")
    psi = output.get("psi")
    if psi:
        for key in ("max_abs_psi_at_0", "max_abs_psi_at_1"):
            value = psi.get(key)
            if not (isinstance(value, (int, float)) and
                    abs(value) <= PSI_ENDPOINT_TOL):
                problems.append(f"psi/{key} = {value!r} exceeds "
                                f"{PSI_ENDPOINT_TOL}")
    return problems


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def check_command(reference: dict, command: str, seed_matters: bool,
                  exit_code, out_path: str) -> list[str]:
    """Problems with one command's result; empty when it passes.

    ``reference`` is this command's entry in the reference file,
    ``{"exit": code, "output": document}``; ``seed_matters`` is true when the
    inputs differ from the reference inputs.
    """
    try:
        with open(out_path, encoding="utf-8") as fh:
            output = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"no readable output: {exc}"]
    if not isinstance(output, dict):
        return ["output is not a JSON object"]
    if seed_matters:
        return _sanity_problems(command, reference["output"], exit_code,
                                output)
    problems = []
    if exit_code != reference["exit"]:
        problems.append(f"exit {exit_code} != reference {reference['exit']}")
    problems += compare_docs(reference["output"], output)
    if command == "solve":
        problems += envelope_problems(reference["output"], output)
    return problems
