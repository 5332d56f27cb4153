"""Command-line frontend.

Four subcommands over the library: `curvature` (full curvature report at a
point of a manifest metric), `classify` (classification verdicts), `wrs`
(1-form recovery and identity residuals), and `verify` (the seeded
identity-verification harness).

Reports are JSON with sorted keys and floats rendered with 17 significant
digits, so identical inputs produce byte-identical output.  Exit codes:
0 success / all checks pass, 1 verification failure, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .errors import CurvError
from .tensor import CurvatureBundle, _relative, max_abs

__all__ = ["main", "run", "dumps"]


def _lazy(name: str):
    """The submodule `name` of curvkit, run on its first attribute access,
    so a command runs only the modules it uses.  From the start it is in
    `sys.modules` and an attribute of the package, as an eager import
    leaves it, so `import curvkit.<name>` finds this one module."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    loader.exec_module(module)
    return module


chart = _lazy("chart")
classify = _lazy("classify")
expr = _lazy("expr")  # chart's parser; perfbench/tracer.py finds it in sys.modules
gencurv = _lazy("gencurv")
harness = _lazy("harness")
manifest = _lazy("manifest")
wrs = _lazy("wrs")


# --------------------------------------------------------------------------
# Deterministic JSON (sorted keys, 17 significant digits)

def _render(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{json.dumps(str(k))}:{_render(v)}"
                              for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON used for every report."""
    return _render(obj)


def _envelope(command: str, input_info: dict, *, checks=None, residuals=None,
              verdicts=None, result=None, exit_status: int = 0) -> dict:
    return {
        "tool_version": __version__,
        "input": {"command": command, **input_info},
        "checks": checks or [],
        "residuals": residuals or {},
        "verdicts": verdicts or {},
        "result": result or {},
        "exit_status": exit_status,
    }


# --------------------------------------------------------------------------
# Shared helpers

def _bundle_from_args(args) -> tuple[chart.MetricField, CurvatureBundle,
                                     tuple[float, ...]]:
    metric = manifest.load_manifest(args.manifest)
    if args.at is not None:
        point = manifest.parse_point(args.at)
    elif metric.points:
        point = metric.points[0]
    else:
        raise CurvError("no point given: pass --at or add a 'point:' line "
                        "to the manifest")
    field = metric.to_field()
    return field, field.curvature_bundle(point), point


# --------------------------------------------------------------------------
# Subcommands

def _cmd_curvature(args) -> int:
    field, bundle, point = _bundle_from_args(args)
    gamma = field._curvature_at(point)[1]  # read back from the bundle's evaluation
    residuals = dict(bundle.riemann.symmetry_residuals())
    # contracted second Bianchi: dr_i = 2 ginv[j,k] (nabla S)[j,i,k]
    div_s = 2.0 * np.einsum("jk,jik->i", bundle.g.inv, bundle.nabla_ricci)
    residuals["contracted_second_bianchi"] = _relative(bundle.dr - div_s, max_abs(bundle.dr), 1)
    result = {
        "point": list(point),
        "g": bundle.g.mat,
        "g_inverse": bundle.g.inv,
        "christoffel": gamma,
        "riemann": bundle.riemann.values,
        "ricci": bundle.ricci,
        "ricci_operator": bundle.ricci_op,
        "scalar_curvature": bundle.r,
        "nabla_ricci": bundle.nabla_ricci,
        "dr": bundle.dr,
    }
    report = _envelope("curvature", {"manifest": str(args.manifest),
                                     "point": list(point)},
                       residuals=residuals, result=result)
    if args.format == "text":
        _print_text_curvature(result, residuals)
    else:
        print(dumps(report))
    return 0


def _print_text_curvature(result: dict, residuals: dict) -> None:
    with np.printoptions(precision=12, suppress=False):
        print(f"point:            {result['point']}")
        print(f"scalar curvature: {result['scalar_curvature']:.12g}")
        for key in ("g", "ricci", "dr"):
            print(f"{key}:")
            print(np.asarray(result[key]))
        print("symmetry residuals:")
        for k, v in sorted(residuals.items()):
            print(f"  {k}: {v:.3e}")


def _cmd_classify(args) -> int:
    _, bundle, point = _bundle_from_args(args)
    params = gencurv.GenCurvParams(a=args.a, b=args.b)
    report = classify.classification_report(bundle, params=params, tol=args.tol)
    rd = report.to_dict()
    verdicts = {name: rd[name]["verdict"]
                for name in ("einstein", "quasi_einstein", "quasi_constant",
                             "hyper_quasi_constant", "pseudo_quasi_constant")}
    verdicts["conformally_flat"] = "pass" if rd["conformally_flat"] else "fail"
    residuals = {name: rd[name].get("residual")
                 for name in ("einstein", "hyper_quasi_constant",
                              "pseudo_quasi_constant")}
    residuals["weyl_norm"] = rd["weyl_norm"]
    for key, value in rd["generalized_norms"].items():
        residuals[f"{key}_norm"] = value
    envelope = _envelope("classify",
                         {"manifest": str(args.manifest), "point": list(point),
                          "tol": args.tol, "a": args.a, "b": args.b},
                         residuals=residuals, verdicts=verdicts, result=rd)
    print(dumps(envelope))
    return 0


def _cmd_wrs(args) -> int:
    _, bundle, point = _bundle_from_args(args)
    forms, residual, kernel_dim = wrs.recover_one_forms(bundle)
    res_tq, res_ts = wrs.t_identities(bundle, forms)
    residuals = {
        "wrs_fit": residual,
        "dr_identity": wrs.check_dr_identity(bundle, forms),
        "t_ricci_operator": res_tq,
        "t_ricci_exchange": res_ts,
        "ws_extra_term": wrs.ws_to_wrs_condition(bundle, forms),
    }
    result = {
        "a": forms.a, "b": forms.b, "d": forms.d, "t": forms.t,
        "kernel_dim": kernel_dim,
        "residual": residual,
    }
    verdicts = {"wrs_fit": "pass" if residual <= args.tol else "fail"}
    envelope = _envelope("wrs", {"manifest": str(args.manifest),
                                 "point": list(point), "tol": args.tol},
                         residuals=residuals, verdicts=verdicts, result=result)
    print(dumps(envelope))
    return 0


def _cmd_verify(args) -> int:
    config = harness.TrialConfig(seed=args.seed, trials=args.trials, n=args.n,
                                 params=gencurv.GenCurvParams(a=args.a, b=args.b),
                                 tolerance=args.tol)
    sections = {"2": harness.verify_section2, "3": harness.verify_section3,
                "4": harness.verify_section4}
    reports = [run(config) for key, run in sections.items() if args.section in (key, "all")]
    checks = []
    verdicts = {}
    for report in reports:
        verdicts[f"section{report.section}"] = "pass" if report.passed else "fail"
        for c in report.to_dict()["checks"]:
            c["name"] = f"s{report.section}.{c['name']}"
            checks.append(c)
    worst = float(np.max([c["max_residual"] for c in checks]))  # inf where a check errored
    all_pass = all(r.passed for r in reports)
    exit_status = 0 if all_pass else 1
    envelope = _envelope("verify",
                         {"section": args.section, "n": args.n,
                          "trials": args.trials, "seed": args.seed,
                          "tol": args.tol, "a": args.a, "b": args.b},
                         checks=checks,
                         residuals={"max_residual": worst},
                         verdicts=verdicts,
                         exit_status=exit_status)
    print(dumps(envelope))
    return exit_status


# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvkit",
        description="Riemannian curvature toolkit: curvature reports, "
                    "classification, weak-Ricci-symmetry recovery, and the "
                    "identity-verification harness.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("manifest", help="metric manifest file")
        p.add_argument("--at", default=None,
                       help="comma-separated point (defaults to the "
                            "manifest's first sample point)")
        return p

    def add_tol(p):
        p.add_argument("--tol", type=float, default=1e-8,
                       help="pass/fail tolerance, positive and finite "
                            "(default 1e-8)")

    def add_weights(p):
        # GenCurvParams rejects a non-finite weight
        p.add_argument("--a", type=float, default=1.0,
                       help="weight of the curvature block (default 1)")
        p.add_argument("--b", type=float, default=1.0,
                       help="weight of the Ricci block (default 1)")

    p_curv = add_point_command("curvature", "full curvature report at a point")
    p_curv.add_argument("--format", choices=("json", "text"), default="json")

    p_cls = add_point_command("classify", "classification verdicts at a point")
    add_tol(p_cls)
    add_weights(p_cls)

    add_tol(add_point_command("wrs", "recover the weak-Ricci-symmetry 1-forms"))

    p_ver = sub.add_parser("verify", help="run the seeded identity harness")
    p_ver.add_argument("--section", choices=("2", "3", "4", "all"), default="all")
    p_ver.add_argument("--n", type=int, default=4, help="dimension (> 3)")
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    add_tol(p_ver)
    add_weights(p_ver)
    return parser


_HANDLERS = {
    "curvature": _cmd_curvature,
    "classify": _cmd_classify,
    "wrs": _cmd_wrs,
    "verify": _cmd_verify,
}


# the start of a point whose first coordinate is negative: "-1,0.2", "-.5,1"
_NEGATIVE_START = re.compile(r"-[0-9.]")


def _glue_at_values(argv: list[str]) -> list[str]:
    """argv with `--at V` written `--at=V` where V starts like a negative
    number.  argparse takes a value that starts with '-' for an option
    unless it is one plain negative number, so "-1,0.2" would be refused;
    any other V, a real option included, is left for argparse to judge."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--at" and _NEGATIVE_START.match(arg):
            out[-1] = f"--at={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_glue_at_values(sys.argv[1:] if argv is None else argv))
    if not 0.0 < getattr(args, "tol", 1.0) < math.inf:  # curvature takes no --tol
        parser.error(f"--tol must be a positive finite number, got {args.tol}")
    try:
        return _HANDLERS[args.command](args)
    except (CurvError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry of `python -m curvkit.cli` and of the `curvkit`
    script: `main()` on sys.argv, then `gc.freeze()`, also when argparse
    exits.  Frozen objects sit in the collector's permanent generation,
    which the interpreter's collections at exit skip, so the process ends
    without sweeping the ~22,000 objects numpy and curvkit made at import;
    the operating system reclaims their memory anyway.  `main(argv)` never
    freezes, so in-process callers keep normal collection."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
