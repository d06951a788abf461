"""Stochastic-order checkers and POMDP solvers for verifying that optimal
sensing policies respect the structure predicted by informativeness orders.

The package splits into five layers:

* :mod:`pomdpcheck.model` — model container, validation, the belief grid,
  reward shifts, JSON I/O.
* :mod:`pomdpcheck.lp` — dense phase-1 simplex for feasibility problems.
* :mod:`pomdpcheck.orders` — MLR/FOSD/TP2 predicates, copositive dominance,
  Lehmann precision, boundary checks, Blackwell and reverse factorizations.
  Each returns the JSON-ready verdict dict that ``check`` prints; test
  ``verdict["holds"] is True`` (a dict is always truthy).
* :mod:`pomdpcheck.solver` — exact alpha-vector value iteration with LP
  pruning, point-based grid value iteration, batched Q-values and the
  alpha-vector monotonicity report.
* :mod:`pomdpcheck.structural` — hypothesis reports and empirical
  verification of the monotone-policy, value-shape, and cross-model claims.

:mod:`pomdpcheck.examples` bundles the example generators and
:mod:`pomdpcheck.cli` exposes everything as the ``pomdpcheck`` command.

Imported before NumPy, the package sets ``OPENBLAS_NUM_THREADS=1`` unless
the variable is already set, so OpenBLAS starts no worker thread.
"""

import os

# On models of a few states every product is far below the size at which
# OpenBLAS hands half of it to a second thread (_score_blocks keeps its
# blocks under it), yet the worker OpenBLAS starts at `import numpy`
# busy-waits while a command runs: at 3 states `check` spent twice its wall
# time in CPU.  Pin one thread unless the user chose a count.  This only
# takes effect if NumPy is not imported yet, as in the console script,
# `python -m pomdpcheck.cli` and the test suite; a program that imported
# NumPy first keeps whatever OpenBLAS read then.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .examples import gen_example, list_examples
from .model import (ModelFormatError, PomdpModel, belief_grid, load_model,
                    loads_model, model_to_json, reward_shift_general,
                    save_model, validate_model)
from .orders import (blackwell_dominates, check_a5, check_a7,
                     copositive_dominates, fosd_dominates, gamma_matrices,
                     is_copositive, is_tp2, lehmann_precision, mlr_dominates,
                     reverse_factorization)
from .solver import (CapacityError, ExactVF, GridVF, gamma_monotone_report,
                     prune, solve_exact, solve_grid, vf_to_dict)
from .structural import (assumption_report, compare_models, psi_sweep,
                         slack_budget, verification_report,
                         verify_policy_dominance, verify_q_diff_monotone,
                         verify_range_containment, verify_value_monotone_convex)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ExactVF", "GridVF", "ModelFormatError", "PomdpModel",
    "assumption_report", "belief_grid", "blackwell_dominates", "check_a5",
    "check_a7", "compare_models", "copositive_dominates", "fosd_dominates",
    "gamma_matrices", "gamma_monotone_report", "gen_example", "is_copositive",
    "is_tp2", "lehmann_precision", "list_examples", "load_model",
    "loads_model", "mlr_dominates", "model_to_json", "prune", "psi_sweep",
    "reverse_factorization", "reward_shift_general", "save_model",
    "slack_budget", "solve_exact", "solve_grid", "validate_model",
    "verification_report", "verify_policy_dominance",
    "verify_q_diff_monotone", "verify_range_containment",
    "verify_value_monotone_convex", "vf_to_dict", "__version__",
]
