"""Per-layer tracing for the traced benchmark run.

``Tracer.install()`` wraps, from outside the package, every public function
each fdual layer module defines, plus the ``__call__`` of its callable
classes and the construction of ``JointMeasure``.  A wrapped function is
replaced under every name any fdual module binds it to, so calls between
modules go through the wrapper too.  Each wrapper opens a span on a parent
stack; when the span closes, its duration is charged to its parent, which
gives every layer its self time.  Spans are aggregated in memory by
(op kind, parent, name) and written out at the end; op spans are kept
whole.  ``uninstall()`` restores the original callables.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

from fdual import duality, equivalence, erm, losses, measures, optimize, risk

LAYERS = (optimize, losses, duality, risk, measures, equivalence, erm)

RENAMED = {
    "optimize.golden_min_vec": "optimize.golden_vec",
    "optimize.golden_min": "optimize.golden",
    "optimize.bisect_predicate": "optimize.bisect",
    "optimize.bisect_root": "optimize.bisect",
    "duality.check_theorem1_conditions": "duality.conditions",
}

# spans whose first argument is the objective or predicate being searched:
# each call of it counts as one evaluation
SEARCHES = {"optimize.golden_vec", "optimize.golden", "optimize.bisect"}

# spans whose second positional argument is sized: the points of a call
# (after ``self``), or the bins of min_per_bin (its ``mu``)
SIZED = {"losses.loss", "losses.link", "duality.generator",
         "duality.psi_call", "risk.min_per_bin"}

# a generator call on this many points or more is a grid scan
GRID_SCAN = 1000

CLASS_SPANS = (
    (losses.SurrogateLoss, "__call__", "losses.loss"),
    (losses.GLink, "__call__", "losses.link"),
    (duality.Generator, "__call__", "duality.generator"),
    (duality.PsiFunction, "__call__", "duality.psi_call"),
    (measures.JointMeasure, "__post_init__", "measures.joint_measure"),
)

# (metric, span, field, unit); fields: calls, evals, points, scalar_calls,
# grid_scans, self (self time) and incl (time of the outermost spans)
PER_LAYER = (
    ("optimize.golden_vec.calls_per_op", "optimize.golden_vec", "calls", "calls/op"),
    ("optimize.golden_vec.evals_per_op", "optimize.golden_vec", "evals", "evals/op"),
    ("optimize.golden_vec.self_ms_per_op", "optimize.golden_vec", "self", "ms/op"),
    ("optimize.golden.calls_per_op", "optimize.golden", "calls", "calls/op"),
    ("optimize.golden.evals_per_op", "optimize.golden", "evals", "evals/op"),
    ("optimize.golden.self_ms_per_op", "optimize.golden", "self", "ms/op"),
    ("optimize.bisect.calls_per_op", "optimize.bisect", "calls", "calls/op"),
    ("optimize.bisect.evals_per_op", "optimize.bisect", "evals", "evals/op"),
    ("optimize.bisect.self_ms_per_op", "optimize.bisect", "self", "ms/op"),
    ("losses.loss.calls_per_op", "losses.loss", "calls", "calls/op"),
    ("losses.loss.scalar_calls_per_op", "losses.loss", "scalar_calls", "calls/op"),
    ("losses.loss.points_per_op", "losses.loss", "points", "points/op"),
    ("losses.loss.self_ms_per_op", "losses.loss", "self", "ms/op"),
    ("losses.f_from_loss.ms_per_op", "losses.f_from_loss", "incl", "ms/op"),
    ("losses.loss_from_f.ms_per_op", "losses.loss_from_f", "incl", "ms/op"),
    ("duality.generator.calls_per_op", "duality.generator", "calls", "calls/op"),
    ("duality.generator.points_per_op", "duality.generator", "points", "points/op"),
    ("duality.generator.grid_scans_per_op", "duality.generator", "grid_scans", "scans/op"),
    ("duality.generator.self_ms_per_op", "duality.generator", "self", "ms/op"),
    ("duality.psi_from_f.ms_per_op", "duality.psi_from_f", "incl", "ms/op"),
    ("duality.psi_call.points_per_op", "duality.psi_call", "points", "points/op"),
    ("duality.psi_call.ms_per_op", "duality.psi_call", "incl", "ms/op"),
    ("duality.conditions.ms_per_op", "duality.conditions", "incl", "ms/op"),
    ("risk.optimal_phi_risk.self_ms_per_op", "risk.optimal_phi_risk", "self", "ms/op"),
    ("risk.min_per_bin.calls_per_op", "risk.min_per_bin", "calls", "calls/op"),
    ("risk.min_per_bin.bins_per_op", "risk.min_per_bin", "points", "bins/op"),
    ("risk.min_per_bin.self_ms_per_op", "risk.min_per_bin", "self", "ms/op"),
    ("risk.verify_correspondence.self_ms_per_op", "risk.verify_correspondence", "self", "ms/op"),
    ("measures.joint_measure.built_per_op", "measures.joint_measure", "calls", "objects/op"),
    ("measures.induce_measures.ms_per_op", "measures.induce_measures", "incl", "ms/op"),
    ("measures.f_divergence.ms_per_op", "measures.f_divergence", "incl", "ms/op"),
    ("equivalence.affine_fit.calls_per_op", "equivalence.affine_fit", "calls", "calls/op"),
    ("equivalence.dominance_check.ms_per_op", "equivalence.dominance_check", "incl", "ms/op"),
    ("erm.generate_samples.ms_per_op", "erm.generate_samples", "incl", "ms/op"),
    ("erm.joint_erm.self_ms_per_op", "erm.joint_erm", "self", "ms/op"),
    ("erm.optimal_family_bayes.calls_per_op", "erm.optimal_family_bayes", "calls", "calls/op"),
    ("erm.lemma2_gap.self_ms_per_op", "erm.lemma2_gap", "self", "ms/op"),
    ("erm.quantizer_mismatch.ms_per_op", "erm.quantizer_mismatch", "incl", "ms/op"),
)


class Stat:
    __slots__ = ("calls", "evals", "points", "scalar_calls", "grid_scans",
                 "self", "incl")

    def __init__(self):
        self.calls = self.evals = self.points = 0
        self.scalar_calls = self.grid_scans = 0
        self.self = self.incl = 0.0


class Tracer:
    def __init__(self):
        self.stack: list[list] = []      # open spans: [name, child seconds]
        self.open = Counter()            # open spans per name
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple, list] = {}  # (kind, parent, name) -> totals
        self.ops: list[tuple] = []       # (kind, start, end)
        self.kind = ""
        self._undo: list[tuple] = []

    # --- spans ----------------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _close(self, name: str, stat: Stat, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self.stack.pop()[1]
        self.open[name] -= 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dt
        stat.calls += 1
        stat.self += dt - child
        if not self.open[name]:
            stat.incl += dt
        key = (self.kind, parent[0] if parent else "", name)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += dt
        edge[2] += dt - child

    def _wrap(self, name: str, fn):
        stat = self._stat(name)
        search = name in SEARCHES
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if search:
                inner = args[0]

                def counted(*a):
                    stat.evals += 1
                    return inner(*a)

                args = (counted,) + args[1:]
            if sized:
                arg = args[1]
                size = np.size(arg)
                stat.points += size
                stat.scalar_calls += np.ndim(arg) == 0
                stat.grid_scans += size >= GRID_SCAN
            self.stack.append([name, 0.0])
            self.open[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, stat, t0)

        return traced

    def run_op(self, op):
        """Run one op under a root span named ``op``."""
        self.kind = op.kind
        stat = self._stat("op")
        self.stack.append(["op", 0.0])
        self.open["op"] += 1
        t0 = time.perf_counter()
        try:
            return op.run()
        finally:
            self.ops.append((op.kind, t0, time.perf_counter()))
            self._close("op", stat, t0)

    # --- patching -------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "fdual" or n.startswith("fdual.")]
        for layer in LAYERS:
            short = layer.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(layer).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != layer.__name__):
                    continue
                name = RENAMED.get(f"{short}.{attr}", f"{short}.{attr}")
                wrapped = self._wrap(name, obj)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is obj:
                            self._replace(mod, key, wrapped)
        for cls, attr, name in CLASS_SPANS:
            self._replace(cls, attr, self._wrap(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # --- results --------------------------------------------------------------

    def per_layer(self, n_ops: int) -> dict:
        out = {}
        for metric, span, field, unit in PER_LAYER:
            stat = self.stats.get(span, Stat())
            value = getattr(stat, field)
            if field in ("self", "incl"):
                value *= 1e3
            out[metric] = (value / n_ops, unit)
        return out

    def write(self, path, workload: str, seed: int) -> None:
        spans = [{"op_kind": k, "parent": p, "name": n, "count": e[0],
                  "duration_s": e[1], "self_s": e[2]}
                 for (k, p, n), e in sorted(self.edges.items())]
        t_base = self.ops[0][1] if self.ops else 0.0
        ops = [[k, s - t_base, e - t_base] for k, s, e in self.ops]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": workload, "seed": seed,
                                    "ops": ops, "spans": spans}) + "\n")
