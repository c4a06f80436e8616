"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the boundary functions listed in
``BOUNDARIES`` with timing wrappers, in the module or class that defines
each one and in every ``quiveralg`` module that imported it by name;
``uninstall()`` puts the originals back.  Nothing under ``src/`` changes.

Every wrapped call is a span: name, start, end, parent span and op id.
A span's self time is its duration minus the time of its child spans
(spans nest, so the children never overlap), and a layer's self time is
the sum over the spans of its module.  Work in functions that are not
wrapped is charged to the nearest wrapped caller: attribution is by call
boundary.  In particular the tensor-algebra table is filled lazily, so
its cost lands under ``findim.quiver_presentation`` and
``findim.table``, not under ``preprojective.preprojective_algebra``.

The kernels called hundreds of thousands of times per pass (``HOT``) are
timed and counted like every other span but are not stored one by one:
at about 1.5 M calls per pass the span list would dominate memory and
the trace file.  Stored spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path) of each boundary; the layer is the module.
BOUNDARIES = [
    ("exactla", "Field.rref"), ("exactla", "PrimeField.rref"),
    ("exactla", "Field.kernel"), ("exactla", "Field.solve"),
    ("exactla", "PrimeField.matmul"), ("exactla", "RationalField.matmul"),
    ("quivers", "complete_basis"),
    ("quivers", "BoundQuiverAlgebra.basis_between"),
    ("modules", "hom_space"), ("modules", "decompose"),
    ("modules", "is_isomorphic"),
    ("homology", "min_proj_resolution"), ("homology", "global_dimension"),
    ("homology", "tau_n_inv"),
    ("derived", "amiot_hom"), ("derived", "SerreContext.__init__"),
    ("derived", "proj_resolve_complex"),
    ("preprojective", "ext_bimodule"),
    ("preprojective", "preprojective_algebra"),
    ("preprojective", "preprojective_module"),
    ("preprojective", "stable_endomorphism"),
    ("findim", "quiver_presentation"), ("findim", "FinDimAlgebra.table"),
    ("findim", "FinDimAlgebra.left_mult_matrix"),
    ("checks", "analyze"), ("checks", "is_tau_n_finite"),
    ("checks", "is_n_rep_finite"), ("checks", "vosnex"),
    ("checks", "is_self_injective"), ("checks", "iwanaga_gorenstein_dim"),
    ("checks", "rigidity"), ("checks", "cy_spot_check"),
    ("families", "knit_indecomposables"), ("families", "auslander_algebra"),
    ("families", "higher_auslander_chain"),
    ("cli", "load_algebra"), ("cli", "build_family"),
    ("cli", "serialize_spec"),
]

LAYERS = ["exactla", "quivers", "modules", "homology", "derived",
          "preprojective", "findim", "checks", "families", "cli"]

HOT = {"exactla.rref", "exactla.kernel", "exactla.solve", "exactla.matmul",
       "quivers.basis_between", "findim.table", "findim.left_mult_matrix"}

# checks.analyze's direct children, by span name, give its stage table;
# stable_endomorphism starts the gamma stage, which also takes the
# quiver_presentation and global_dimension calls that follow it.
STAGES = ["gldim", "tau_orbit", "n_rf", "vosnex", "preprojective_module",
          "preprojective_algebra", "presentation", "self_injective",
          "ig_dim", "rigidity", "amiot_hom", "gamma", "cy_check"]
_STAGE_OF = {
    "homology.global_dimension": "gldim",
    "checks.is_tau_n_finite": "tau_orbit",
    "checks.is_n_rep_finite": "n_rf",
    "checks.vosnex": "vosnex",
    "preprojective.preprojective_module": "preprojective_module",
    "preprojective.preprojective_algebra": "preprojective_algebra",
    "findim.quiver_presentation": "presentation",
    "checks.is_self_injective": "self_injective",
    "checks.iwanaga_gorenstein_dim": "ig_dim",
    "checks.rigidity": "rigidity",
    "derived.amiot_hom": "amiot_hom",
    "preprojective.stable_endomorphism": "gamma",
    "checks.cy_spot_check": "cy_check",
}

# (metric, unit): self seconds of a layer, calls or inclusive seconds of
# one span name, a size counter, or an analyze stage.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS] + [
        ("exactla.rref.calls", "count"), ("exactla.rref.cells", "cells"),
        ("exactla.matmul.calls", "count"), ("exactla.matmul.mnk", "mnk"),
        ("exactla.matmul.object_fallbacks", "count"),
        ("exactla.solve.calls", "count"), ("exactla.kernel.calls", "count"),
        ("quivers.complete_basis.s", "s"),
        ("quivers.basis_between.calls", "count"),
        ("modules.hom_space.calls", "count"),
        ("modules.hom_space.unknowns", "unknowns"),
        ("modules.decompose.calls", "count"),
        ("modules.is_isomorphic.calls", "count"),
        ("homology.min_proj_resolution.calls", "count"),
        ("homology.global_dimension.calls", "count"),
        ("homology.tau_n_inv.calls", "count"),
        ("derived.amiot_hom.s", "s"), ("derived.SerreContext.count", "count"),
        ("derived.proj_resolve_complex.calls", "count"),
        ("preprojective.ext_bimodule.s", "s"),
        ("preprojective.preprojective_algebra.s", "s"),
        ("preprojective.preprojective_module.calls", "count"),
        ("preprojective.stable_endomorphism.s", "s"),
        ("findim.quiver_presentation.calls", "count"),
        ("findim.quiver_presentation.s", "s"),
        ("findim.table.calls", "count"),
        ("findim.left_mult_matrix.calls", "count"),
    ] + [(f"checks.stage.{s}.s", "s") for s in STAGES] + [
        ("families.knit_indecomposables.s", "s"),
        ("families.auslander_algebra.s", "s"),
        ("cli.load_algebra.s", "s"), ("cli.report_json.s", "s"),
        ("process.cpu_s", "s"), ("trace.wall_s", "s"),
    ])


def _span_name(module: str, path: str) -> str:
    cls, _, attr = path.rpartition(".")
    if attr == "__init__":
        return f"{module}.{cls}"
    return f"{module}.{attr}"


# Size counters computed from a call's arguments, before the call.
def _count_rref(counts, args):
    a = args[1]
    counts["exactla.rref.cells"] += a.shape[0] * a.shape[1]


def _count_matmul(counts, args):
    field, a, b = args[0], args[1], args[2]
    m, k = a.shape
    n = b.shape[1]
    counts["exactla.matmul.mnk"] += m * k * n
    if field.kind == "GF" and m and n and k > field._max_inner:
        counts["exactla.matmul.object_fallbacks"] += 1


def _count_hom_space(counts, args):
    M, N = args[0], args[1]
    counts["modules.hom_space.unknowns"] += sum(
        m * n for m, n in zip(M.dims, N.dims))


_SIZES = {"exactla.rref": _count_rref, "exactla.matmul": _count_matmul,
          "modules.hom_space": _count_hom_space}


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts = {name: 0 for name, unit in PER_LAYER
                       if unit in ("cells", "mnk", "unknowns")}
        self.counts["exactla.matmul.object_fallbacks"] = 0
        self.stage_s = {s: 0.0 for s in STAGES}
        self.spans: list[tuple] = []
        self._stack: list[list] = []     # [name, start, child_s, span_id, gamma]
        self._next_id = 0
        self._op = None
        self._saved: list[tuple] = []

    # -- installing the wrappers ------------------------------------------
    def install(self):
        mods = {m: importlib.import_module(f"quiveralg.{m}") for m in LAYERS}
        others = [v for k, v in sys.modules.items()
                  if k.startswith("quiveralg") and v is not None]
        for module, path in BOUNDARIES:
            owner = mods[module]
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p)
            attr = parts[-1]
            orig = owner.__dict__[attr]
            wrapper = self._wrap(orig, _span_name(module, path))
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            if len(parts) == 1:
                for mod in others:
                    if mod.__dict__.get(attr) is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, name):
        # stats: calls, self seconds, inclusive seconds of outermost
        # calls, current recursion depth
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        size = _SIZES.get(name)
        record = name not in HOT
        clock = time.perf_counter
        counts = self.counts
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if size is not None:
                size(counts, args)
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = stack[-1][3] if stack else None
            frame = [name, 0.0, 0.0, span_id, False]
            st[3] += 1
            stack.append(frame)
            t0 = frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                st[0] += 1
                st[1] += d - frame[2]
                st[3] -= 1
                if not st[3]:
                    st[2] += d
                if stack:
                    parent = stack[-1]
                    parent[2] += d
                    if parent[0] == "checks.analyze":
                        tracer._charge_stage(parent, name, d)
                    parent_id = parent[3]
                else:
                    parent_id = None
                if record:
                    spans.append((span_id, name, t0, t1, parent_id,
                                  tracer._op))

        return wrapper

    def _charge_stage(self, analyze_frame, name, d):
        stage = _STAGE_OF.get(name)
        if stage is None:
            return
        if name == "preprojective.stable_endomorphism":
            analyze_frame[4] = True
        elif analyze_frame[4] and stage in ("gldim", "presentation"):
            stage = "gamma"
        self.stage_s[stage] += d

    # -- spans opened by the benchmark itself ------------------------------
    def span(self, name, fn, *args):
        """Call fn(*args) inside a span that is not one of the program's
        functions (the op root, or the report step)."""
        return self._wrap(fn, name)(*args)

    def set_op(self, op_id):
        self._op = op_id

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics accumulated so far (without the process and
        trace entries, which the runner measures)."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                st[1] for k, st in self.stats.items()
                if k.split(".", 1)[0] == layer)
        for name, unit in PER_LAYER:
            if name in out or name.split(".")[0] in ("process", "trace"):
                continue
            if name in self.counts:
                out[name] = self.counts[name]
            elif name.startswith("checks.stage."):
                out[name] = self.stage_s[name.split(".")[2]]
            elif name.endswith(".calls") or name.endswith(".count"):
                out[name] = self.stats.get(name.rsplit(".", 1)[0], [0])[0]
            else:
                out[name] = self.stats.get(name[:-2], [0, 0, 0.0])[2]
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, op in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
