"""Outside-in tracer: wraps pomdpcheck functions without editing the package.

Each traced function is replaced by a wrapper that opens a span (name,
start, end, parent span) around the original call. Optional observers read
the call's arguments and return value to add computed counters, such as
score-matrix bytes per grid sweep. A function imported by name into other
modules has several aliases, so the tracer rebinds every module attribute,
and every entry of a module-level dict, that holds the original function
object. ``uninstall`` puts every one of them back.

Spans stay in memory; ``child.py`` hands them to ``run.py``, which writes
them out when the run ends and derives self times (a span's duration minus
the time its direct child spans cover).
"""

from __future__ import annotations

import functools
import os
import sys
import time

PACKAGE = "pomdpcheck"


# -- observers: called as observer(rec, result, *args, **kwargs) ------------
# Each mirrors the traced function's signature so arguments bind by name.

def _obs_belief_grid(rec, result, num_states, resolution):
    rec.grids[(int(num_states), int(resolution))] = int(result.shape[0])


def _obs_verdict(rec, result, *args, **kwargs):
    if getattr(result, "holds", True) is None:
        rec.add("orders.undetermined", 1)


def _obs_lp_solve(rec, result, *args, **kwargs):
    if getattr(result, "status", None) == "numerical_failure":
        rec.add("lp.lp_solve.numerical_failures", 1)


def _obs_grid_backup(rec, result, m, vectors, beliefs):
    carried = int(vectors.shape[0])
    rec.max("solver.grid_backup.vectors_max", carried)
    score_bytes = (8 * carried * int(beliefs.shape[0])
                   * int(m.num_actions) * int(m.num_obs))
    rec.add("solver.grid_backup.score_bytes", score_bytes)


def _obs_solve_grid(rec, result, *args, **kwargs):
    rec.set("solver.grid_backup.vectors_final", int(result.vectors.shape[0]))


def _obs_pointwise_filter(rec, result, cands, eps=0.0):
    rec.add("solver.pointwise_filter.rows_in", int(cands.shape[0]))
    rec.add("solver.pointwise_filter.rows_kept", int(len(result)))


def _obs_prune(rec, result, cands, eps):
    rec.add("solver.prune.rows_in", int(cands.shape[0]))
    rec.add("solver.prune.rows_kept", int(len(result)))


def _obs_batch_margins(rec, result, cands, refs):
    n_cand, n_states = (int(n) for n in cands.shape)
    n_refs = int(refs.shape[0])
    rec.add("solver.batch_margins.candidates", n_cand)
    rec.add("solver.batch_margins.tableau_bytes",
            8 * n_cand * (n_states + 1) * (n_refs + n_states + 1))


def _obs_solve_exact(rec, result, *args, **kwargs):
    rec.set("solver.exact.vectors_final", int(result.vectors.shape[0]))


def _obs_emit(rec, result, doc, out):
    if out and os.path.exists(out):
        rec.add("cli.emit.bytes", os.path.getsize(out))


# -- what to trace ------------------------------------------------------------
# (span name or None, module, function, observer). A None span name wraps the
# function for its observer only, so its time stays with the enclosing span.

TARGETS = (
    ("model.belief_grid", "model", "belief_grid", _obs_belief_grid),
    ("model.load_model", "model", "load_model", None),
    ("orders.is_copositive", "orders", "is_copositive", None),
    ("orders.blackwell_dominates", "orders", "blackwell_dominates",
     _obs_verdict),
    ("orders.reverse_factorization", "orders", "reverse_factorization",
     _obs_verdict),
    (None, "orders", "is_tp2", _obs_verdict),
    (None, "orders", "copositive_dominates", _obs_verdict),
    (None, "orders", "check_a5", _obs_verdict),
    (None, "orders", "lehmann_precision", _obs_verdict),
    (None, "orders", "check_a7", _obs_verdict),
    ("lp.lp_solve", "lp", "lp_solve", _obs_lp_solve),
    ("solver.grid_backup", "solver", "_grid_backup", _obs_grid_backup),
    (None, "solver", "solve_grid", _obs_solve_grid),
    ("solver.pointwise_filter", "solver", "_pointwise_filter",
     _obs_pointwise_filter),
    ("solver.exact_backup", "solver", "_backup_arrays", None),
    ("solver.prune", "solver", "_prune_arrays", _obs_prune),
    ("solver.batch_margins", "solver", "_batch_margins", _obs_batch_margins),
    ("solver.streaming_top2", "solver", "_streaming_top2", None),
    ("solver.sup_residual", "solver", "_sup_residual", None),
    (None, "solver", "solve_exact", _obs_solve_exact),
    ("structural.q_batch", "solver", "_q_batch", None),
    ("structural.psi_sweep", "structural", "psi_sweep", None),
    ("structural.range_containment", "structural", "verify_range_containment",
     None),
    ("structural.value_shape", "structural", "verify_value_monotone_convex",
     None),
    ("structural.dominance", "structural", "verify_policy_dominance", None),
    ("cli.emit", "cli", "_emit", _obs_emit),
    ("cli.cmd", "cli", "cmd_check", None),
    ("cli.cmd", "cli", "cmd_solve", None),
    ("cli.cmd", "cli", "cmd_verify", None),
)


class Recorder:
    """Counters filled by observers; one per traced process."""

    def __init__(self):
        self.counters: dict[str, float] = {}
        self.grids: dict[tuple[int, int], int] = {}
        self.observer_errors: list[str] = []

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def max(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def set(self, name, value):
        self.counters[name] = value


class Tracer:
    """Installs span wrappers on the loaded pomdpcheck modules."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self.rec = Recorder()
        self.missing: list[str] = []
        self.rebound: dict[str, int] = {}   # "module.function" -> aliases
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def _wrap(self, span_name, fn, observer):
        spans, stack, rec = self.spans, self._stack, self.rec
        clock = time.perf_counter

        def observe(result, args, kwargs):
            try:
                observer(rec, result, *args, **kwargs)
            except Exception as exc:  # never let the tracer change results
                rec.observer_errors.append(
                    f"{fn.__qualname__}: {type(exc).__name__}: {exc}")

        if span_name is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(result, args, kwargs)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append([span_name, clock(), 0.0,
                              stack[-1] if stack else -1])
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[index][2] = clock()
                    stack.pop()
                if observer is not None:
                    observe(result, args, kwargs)
                return result
        # Keep an lru_cache'd function's cache behind the wrapper and its
        # cache API reachable through it.
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- install / uninstall -------------------------------------------------
    def _package_modules(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and
                (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        modules = self._package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for span_name, mod_name, func_name, observer in TARGETS:
            home = by_name.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(home, func_name, None) if home else None
            if fn is None or not callable(fn):
                self.missing.append(f"{mod_name}.{func_name}")
                continue
            wrapper = self._wrap(span_name, fn, observer)
            count = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod.__dict__, attr, fn))
                        count += 1
                    elif isinstance(value, dict):
                        for key, entry in list(value.items()):
                            if entry is fn:
                                value[key] = wrapper
                                self._restore.append((value, key, fn))
                                count += 1
            self.rebound[f"{mod_name}.{func_name}"] = count

    def uninstall(self) -> None:
        while self._restore:
            holder, key, fn = self._restore.pop()
            holder[key] = fn

    # -- results -------------------------------------------------------------
    def report(self) -> dict:
        counters = dict(self.rec.counters)
        counters["model.belief_grid.points"] = sum(self.rec.grids.values())
        return {
            "spans": self.spans,
            "counters": counters,
            "grids": [[n, r, p]
                      for (n, r), p in sorted(self.rec.grids.items())],
            "missing": self.missing,
            "rebound": self.rebound,
            "observer_errors": self.rec.observer_errors,
        }
