#!/usr/bin/env bash
# The console-script checks that CI runs: exit statuses, outputs and the
# benchmark's child entry points, from the repository root.
#
# Where the `curvkit` console script is installed (`pip install -e .`), it is
# checked against `python -m curvkit.cli`; without it, `python -m
# curvkit.cli` runs every command:
#
#   PYTHONPATH=src scripts/console_checks.sh
set -euo pipefail
# a numpy warning in any run below fails the check instead of being printed
export PYTHONWARNINGS=error::RuntimeWarning
cd "$(dirname "$0")/.."
if command -v curvkit >/dev/null; then
    curvkit=(curvkit)
else
    curvkit=(python -m curvkit.cli)
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

set -x
"${curvkit[@]}" --version
for args in "classify manifests/conformal4.txt" "verify --n 17"; do
    s1=0; "${curvkit[@]}" $args > "$tmp/script.out" 2> "$tmp/script.err" || s1=$?
    s2=0; python -m curvkit.cli $args > "$tmp/module.out" 2> "$tmp/module.err" || s2=$?
    test "$s1" -eq "$s2"
    cmp "$tmp/script.out" "$tmp/module.out"
    cmp "$tmp/script.err" "$tmp/module.err"
done
python -c "from curvkit import MetricField, Expression, parse, CurvatureBundle, Metric, Tensor04"
python -c "import sys, curvkit.cli as c; c.main(['verify', '--n', '4', '--trials', '2']); assert 'parse' not in object.__getattribute__(sys.modules['curvkit.expr'], '__dict__')"
"${curvkit[@]}" curvature manifests/sphere2.txt
"${curvkit[@]}" curvature manifests/poly3.txt --at -0.0,0.3,0.2
"${curvkit[@]}" classify manifests/sphere3.txt --a 1 --b 1
"${curvkit[@]}" classify manifests/conformal4.txt
# n = 2, where the hyper fit's normal operator is singular; a flat chart; n = 3
"${curvkit[@]}" classify manifests/sphere2.txt
"${curvkit[@]}" classify manifests/euclidean3.txt
"${curvkit[@]}" classify manifests/poly3.txt
# the derivatives of curvature (nabla S, dr and nabla R) on every manifest
"${curvkit[@]}" curvature manifests/sphere3.txt
"${curvkit[@]}" curvature manifests/conformal4.txt
"${curvkit[@]}" wrs manifests/sphere3.txt
"${curvkit[@]}" wrs manifests/poly3.txt
"${curvkit[@]}" wrs manifests/conformal4.txt
# a flat chart has no Ricci tensor to recover forms from: exit 2, no traceback
status=0; "${curvkit[@]}" wrs manifests/euclidean3.txt 2> "$tmp/flat.err" || status=$?
test "$status" -eq 2
test "$(cat "$tmp/flat.err")" = "error: Ricci tensor is numerically zero"
"${curvkit[@]}" curvature manifests/conformal5.txt
"${curvkit[@]}" classify manifests/conformal5.txt
# non-default weights shift the bilinear of each block by a different multiple of g
"${curvkit[@]}" classify manifests/conformal5.txt --a 2 --b -0.7
"${curvkit[@]}" wrs manifests/conformal5.txt
"${curvkit[@]}" verify --section all --n 4 --trials 10
"${curvkit[@]}" verify --section all --n 5 --trials 100
"${curvkit[@]}" verify --section all --n 8 --trials 10
"${curvkit[@]}" verify --section all --n 8 --trials 10 --a 2 --b -0.7
"${curvkit[@]}" verify --section all --n 6 --trials 50 --a 2 --b -0.7
"${curvkit[@]}" verify --section all --n 5 --trials 700
"${curvkit[@]}" verify --section all --n 16 --trials 2
# the stacked least-squares fits of 2,000 trials pass without a warning
"${curvkit[@]}" verify --section all --n 4 --trials 2000 > "$tmp/stacked.out" 2> "$tmp/stacked.err"
test ! -s "$tmp/stacked.err"
# this seed draws one degenerate pairing, which its check redraws
"${curvkit[@]}" verify --section all --n 8 --seed 21 --trials 100 > "$tmp/redraw.out" 2> "$tmp/redraw.err"
test ! -s "$tmp/redraw.err"
status=0; "${curvkit[@]}" verify --n 17 || status=$?
test "$status" -eq 2
status=0; "${curvkit[@]}" verify --n 16 --trials 391 || status=$?
test "$status" -eq 2
status=0; "${curvkit[@]}" verify --a 1e308 --b 1e308 || status=$?
test "$status" -eq 2
status=0; "${curvkit[@]}" verify --seed -1 || status=$?
test "$status" -eq 2
# weights outside a flat formula's preconditions fail their checks (exit 1);
# an empty stderr tells a failed check from a traceback, which also exits 1,
# and the errored checks make the top-level worst residual inf
for weights in "--n 4 --a 0" "--n 5 --a 1 --b -0.3333333333333333"; do
    status=0; "${curvkit[@]}" verify --trials 2 $weights > "$tmp/weights.out" 2> "$tmp/weights.err" || status=$?
    test "$status" -eq 1
    test ! -s "$tmp/weights.err"
    python -c "import json, sys; assert json.load(sys.stdin)['residuals']['max_residual'] == 'inf'" < "$tmp/weights.out"
done
printf 'dim: 2\ncoords: x, y\ng: x,x = 1e200\ng: y,y = 1e200\npoint: 1, 0.5\n' > "$tmp/flat1e200.txt"
status=0; timeout 60 "${curvkit[@]}" classify "$tmp/flat1e200.txt" || status=$?
test "$status" -eq 2
# entries near the float limit: the metric check halves them before it adds
printf 'dim: 2\ncoords: x, y\ng: x,x = 1.5e308\ng: y,y = 1.5e308\npoint: 1, 0.5\n' > "$tmp/huge.txt"
"${curvkit[@]}" curvature "$tmp/huge.txt"
status=0; "${curvkit[@]}" classify "$tmp/huge.txt" || status=$?
test "$status" -eq 2
# a finite jet whose curvature overflows (inf - inf): exit 2, one error line
printf 'dim: 2\ncoords: x0, x1\ng: x0,x0 = 1e-8 + tan(log(x0)) + (cos(x1*1e-150) + 3)*1e-3\n' > "$tmp/overflow.txt"
printf 'g: x0,x1 = 1e-9\ng: x1,x1 = 1e-8 + x1*1e100\npoint: 1e10, 0\n' >> "$tmp/overflow.txt"
status=0; "${curvkit[@]}" curvature "$tmp/overflow.txt" 2> "$tmp/overflow.err" || status=$?
test "$status" -eq 2
test "$(cat "$tmp/overflow.err")" = "error: nabla_riemann is not finite at this point"
printf '\xef\xbb\xbfdim: 2\ncoords: theta, phi\ng: theta,theta = 1\ng: phi,phi = sin(theta)^2\npoint: 1, 0.2\n' > "$tmp/bom.txt"
"${curvkit[@]}" curvature "$tmp/bom.txt"
python perfbench/child.py cli classify manifests/sphere3.txt
python perfbench/child.py cli verify --n 4 --trials 3
python perfbench/child.py chart-warm --seed 1 --n 5 --points 6 | python -c "import json,sys; d=json.loads(sys.stdin.read().splitlines()[-1]); assert d['failed'] == 0, d['problems']"
