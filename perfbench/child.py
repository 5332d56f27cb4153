"""Child processes of the benchmark; run.py starts them, one at a time.

    python child.py cli ARGS...        the curvkit CLI with every layer traced
    python child.py chart-warm ...     the in-process chart workload

The traced CLI writes the CLI's own stdout unchanged and, as the last line
of stderr, the trace summary after TRACE_MARK.  chart-warm prints one JSON
line with its timings, its oracle results and, when traced, its summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

TRACE_MARK = "PERFBENCH-TRACE "


def traced_cli(argv: list[str]) -> int:
    import curvkit.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return curvkit.cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.summary()) + "\n")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def chart_warm(args) -> dict:
    """Set-up (import, MetricField construction, first curvature_bundle and
    first nabla_riemann at the first point), then the seeded points in turn:
    curvature_bundle, classification_report, recover_one_forms and
    weak_symmetry_residual with the recovered forms.  Times are scaled to
    the reference speed (probe.py)."""
    from probe import Clock

    clock = Clock()
    t0 = time.perf_counter()
    import curvkit.classify
    import curvkit.manifest
    import curvkit.wrs

    # numpy is loaded by now, so these add no import time to the set-up
    import numpy as np

    import oracle
    from inputs import dense_chart, dense_points

    chart = dense_chart(args.seed, args.n)
    points = dense_points(args.seed, args.n, args.points)
    tracer = None
    if args.trace:
        import curvkit.cli  # noqa: F401  (the tracer wraps every module)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    field = curvkit.manifest.parse_manifest(chart.manifest).to_field()
    field.curvature_bundle(points[0])
    nabla0 = field.nabla_riemann(points[0])
    setup_s = clock.scale(time.perf_counter() - t0)
    out = {"setup_s": setup_s, "point_s": [], "attempted": 0, "failed": 0,
           "problems": []}
    if tracer:
        tracer.summary()        # drop the set-up spans, keep its first calls

    seen: dict[int, str] = {}
    start = time.perf_counter()
    done = 0
    while done < len(points) or time.perf_counter() - start < args.seconds:
        k = done % len(points)
        x = points[k]
        t = time.perf_counter()
        bundle = field.curvature_bundle(x)
        report = curvkit.classify.classification_report(bundle)
        forms, residual, kernel = curvkit.wrs.recover_one_forms(bundle)
        ws = curvkit.wrs.weak_symmetry_residual(field, x, forms)
        out["point_s"].append(clock.scale(time.perf_counter() - t))
        done += 1

        g, R, S = bundle.g.mat, bundle.riemann.values, bundle.ricci
        rd = report.to_dict()
        p = oracle.check_curvature(chart, x, g, bundle.g.inv, R, S, bundle.r,
                                   bundle.nabla_ricci, bundle.dr)
        p += oracle.check_classification(rd, g, R, S, bundle.r, tol=1e-8)
        p += oracle.check_one_forms(forms.a, forms.b, forms.d, residual, kernel,
                                    S, bundle.nabla_ricci)
        if not (math.isfinite(ws) and ws >= 0.0):
            p.append(f"weak symmetry residual {ws!r}")
        if k == 0 and done == 1:
            p += oracle.check_nabla_riemann(nabla0, bundle.g.inv, bundle.nabla_ricci)
            p += oracle.check_weak_symmetry(ws, nabla0, R, forms.a, forms.b, forms.d)
        digest = _digest(g.tolist(), R.tolist(), S.tolist(), bundle.r,
                         bundle.nabla_ricci.tolist(), bundle.dr.tolist(), rd,
                         np.concatenate([forms.a, forms.b, forms.d]).tolist(),
                         residual, kernel, ws)
        if seen.setdefault(k, digest) != digest:
            p.append(f"point {k}: results differ from its first evaluation")
        out["attempted"] += 1
        if p:
            out["failed"] += 1
            out["problems"].append(f"point {k}: " + "; ".join(p))
    out["digests"] = seen
    if tracer:
        out["trace"] = tracer.summary()
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"]:
        return traced_cli(argv[1:])
    parser = argparse.ArgumentParser(prog="child.py chart-warm")
    parser.add_argument("mode", choices=["chart-warm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--points", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="after one pass over the points, go on this long")
    parser.add_argument("--trace", action="store_true")
    print(json.dumps(chart_warm(parser.parse_args(argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
