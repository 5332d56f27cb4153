"""Run-time span tracer for curvkit's layers.

`Tracer.install()` wraps the public entry points of each curvkit module (and
the `MetricField` methods, the build of its symbolic Christoffels and
`Tensor04` construction) in place.  It also rebinds every name another
curvkit module imported with ``from .x import y``, so calls such as
``harness.reconstruct_qc_flat`` are seen too.  No file of curvkit is
edited; the wrapping lives only in the traced process.

A span is ``[name, start, end, parent]``, kept in memory and reduced by
`summary()` when the traced work ends.  A span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time

# Entry points per module.  Recursive helpers (expr.eval_node, diff_node) and
# leaf arithmetic (tensor.max_abs, is_symmetric) are left out: they run
# hundreds of thousands of times per command, and their cost is counted as
# self time of the layer that calls them.
FUNCTIONS = {
    "curvkit.cli": ["main", "dumps"],
    "curvkit.manifest": ["load_manifest", "parse_manifest"],
    "curvkit.expr": ["parse", "differentiate", "evaluate"],
    "curvkit.chart": ["christoffel", "curvature_bundle", "nabla_riemann"],
    "curvkit.tensor": ["ricci_contract", "scalar_curvature", "ricci_operator",
                       "wedge_gg", "quasi_constant_shape", "hyper_shape",
                       "pseudo_shape"],
    "curvkit.gencurv": ["quasi_conformal", "pseudo_projective", "w2", "weyl",
                        "weyl_from_tensors", "reconstruct_qc_flat",
                        "reconstruct_pp_flat", "reconstruct_w2_flat",
                        "qc_flat_alpha", "pp_flat_alpha", "w2_flat_alpha"],
    "curvkit.classify": ["einstein_check", "quasi_einstein_decompose",
                         "quasi_constant_fit", "hyper_quasi_constant_fit",
                         "pseudo_quasi_constant_fit", "conformally_flat_check",
                         "classification_report"],
    "curvkit.wrs": ["wrs_residual", "weak_symmetry_residual",
                    "weak_symmetry_residual_tensors", "ws_to_wrs_condition",
                    "check_dr_identity", "a_from_bd", "t_identities",
                    "recover_one_forms"],
    "curvkit.harness": ["random_point_model", "verify_section2", "verify_section3",
                        "verify_section4", "verify_all", "product_ricci_form",
                        "flat_ricci_form", "rank_one_coefficient",
                        "selfconsistent_ricci"],
}
METHODS = {
    ("curvkit.chart", "MetricField"): ["__init__", "metric_at", "christoffel",
                                       "curvature_bundle", "nabla_riemann",
                                       "scalar_curvature_expression"],
    ("curvkit.tensor", "Metric"): ["__init__"],
    ("curvkit.tensor", "Tensor04"): ["__post_init__"],   # every construction
}

FITS = ["classify.einstein_check", "classify.quasi_einstein_decompose",
        "classify.quasi_constant_fit", "classify.hyper_quasi_constant_fit",
        "classify.pseudo_quasi_constant_fit"]
RECONSTRUCT = ["gencurv.reconstruct_qc_flat", "gencurv.reconstruct_pp_flat",
               "gencurv.reconstruct_w2_flat"]
BUNDLE = "chart.MetricField.curvature_bundle"
NABLA = "chart.MetricField.nabla_riemann"

# Per-layer time metrics: seconds inside spans of these names, counting a
# span nested in another of the same set once.
TIMES = {
    "manifest.load_s": ["manifest.load_manifest"],
    "expr.parse_s": ["expr.parse"],
    "cli.render_s": ["cli.dumps"],
    # the cold symbolic build (with the _dg and _ginv it needs) and any
    # evaluation through MetricField.christoffel
    "chart.christoffel_s": ["chart.MetricField._gamma", "chart.MetricField.christoffel"],
    "classify.report_s": ["classify.classification_report"],
    "classify.fit_s": FITS,
    "wrs.recover_s": ["wrs.recover_one_forms"],
    "wrs.weak_symmetry_s": ["wrs.weak_symmetry_residual"],
    "harness.s2_s": ["harness.verify_section2"],
    "harness.s3_s": ["harness.verify_section3"],
    "harness.s4_s": ["harness.verify_section4"],
    "harness.selfconsistent_s": ["harness.selfconsistent_ricci"],
}
COUNTS = {
    "chart.bundle_calls": [BUNDLE],
    "classify.fit_calls": FITS,
    "gencurv.reconstruct_calls": RECONSTRUCT,
    "tensor.tensor04_built": ["tensor.Tensor04.__post_init__"],
    "tensor.wedge_gg_calls": ["tensor.wedge_gg"],
    "tensor.shape_calls": ["tensor.quasi_constant_shape", "tensor.hyper_shape",
                           "tensor.pseudo_shape"],
    "harness.selfconsistent_calls": ["harness.selfconsistent_ricci"],
}
SELF = {"gencurv.self_s": "gencurv", "tensor.self_s": "tensor", "harness.self_s": "harness"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.first: dict[str, float] = {}   # duration of the first call per name

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        """Wrap every entry point of the curvkit modules already imported."""
        mods = {k: v for k, v in sys.modules.items() if k.startswith("curvkit")}
        for modname, names in FUNCTIONS.items():
            layer = modname.split(".")[1]
            for fname in names:
                original = getattr(mods[modname], fname)
                wrapper = self.wrap(original, f"{layer}.{fname}")
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        for (modname, clsname), names in METHODS.items():
            cls = getattr(mods[modname], clsname)
            for mname in names:
                setattr(cls, mname, self.wrap(getattr(cls, mname),
                                              f"{modname.split('.')[1]}.{clsname}.{mname}"))
        # _gamma is a functools.cached_property: wrapping its build function
        # makes the cold symbolic Christoffel build a span, once per field.
        gamma = vars(mods["curvkit.chart"].MetricField)["_gamma"]
        gamma.func = self.wrap(gamma.func, "chart.MetricField._gamma")

    def summary(self) -> dict:
        """Reduce the spans recorded since the last summary, then drop them.
        Call it with no span open.  First calls are first in the process,
        across summaries."""
        spans = self.spans
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        by_name: dict[str, list[int]] = {}
        for i, (name, _, _, parent) in enumerate(spans):
            by_name.setdefault(name, []).append(i)
            if parent >= 0:
                child[parent] += dur[i]

        def spans_of(group):
            return [i for name in group for i in by_name.get(name, ())]

        def inside(i, group):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] in group:
                    return True
                parent = spans[parent][3]
            return False

        out = {
            "counts": {m: len(spans_of(group)) for m, group in COUNTS.items()},
            "times": {m: sum(dur[i] for i in spans_of(group) if not inside(i, group))
                      for m, group in TIMES.items()},
            "self": {m: sum(dur[i] - child[i] for name, idx in by_name.items()
                            if name.startswith(layer + ".") for i in idx)
                     for m, layer in SELF.items()},
            "warm": {},
        }
        for name in (BUNDLE, NABLA):
            idx = by_name.get(name, [])
            if idx and name not in self.first:
                self.first[name] = dur[idx[0]]
                idx = idx[1:]
            out["warm"][name] = [sum(dur[i] for i in idx), len(idx)]
        out["first"] = dict(self.first)
        spans.clear()
        return out
