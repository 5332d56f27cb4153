"""Correctness oracle for the benchmark.

Every check compares curvkit's output with a reference computed here, with
no curvkit code: the chart's metric as a Python function (and Christoffel
symbols from its finite differences), closed forms on the golden charts,
and curvature identities evaluated with numpy (algebraic symmetries, the
first and contracted second Bianchi identities, the Ricci and scalar
contractions, the Weyl tensor, the normal equations of the 1-form fit).

Each function returns a list of problems; an empty list means the output
passed.  The caller counts an operation as failed when any problem is
reported, and never skips one.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import Chart

TOL = 1e-8          # relative tolerance on identities that hold to rounding
FD_TOL = 1e-7       # finite-difference Christoffel reference


def max_abs(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


class Problems(list):
    def need(self, what: str, residual: float, tol: float = TOL) -> None:
        if not residual <= tol:          # also catches NaN
            self.append(f"{what}: residual {residual:.3g} > {tol:g}")

    def close(self, what: str, got, want, tol: float = TOL) -> None:
        got, want = np.asarray(got, float), np.asarray(want, float)
        if got.shape != want.shape:
            self.append(f"{what}: shape {got.shape} != {want.shape}")
            return
        self.need(what, max_abs(got - want) / (1.0 + max_abs(want)), tol)


def christoffel_reference(chart: Chart, x) -> np.ndarray:
    """gamma[k,i,j] from fourth-order central differences of the metric."""
    x = np.asarray(x, float)
    n, h = len(x), 1e-3
    dg = np.empty((n, n, n))                   # dg[m,i,j] = d_m g_ij
    for m in range(n):
        e = np.zeros(n)
        e[m] = h
        dg[m] = (-chart.metric(x + 2 * e) + 8 * chart.metric(x + e)
                 - 8 * chart.metric(x - e) + chart.metric(x - 2 * e)) / (12 * h)
    lowered = 0.5 * (np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg)
    return np.einsum("kl,lij->kij", np.linalg.inv(chart.metric(x)), lowered)


def weyl(g, riemann, ricci, r) -> np.ndarray:
    n = g.shape[0]
    if n < 3:
        return np.zeros_like(riemann)
    gs = (np.einsum("il,jk->ijkl", g, ricci) - np.einsum("ik,jl->ijkl", g, ricci)
          + np.einsum("jk,il->ijkl", g, ricci) - np.einsum("jl,ik->ijkl", g, ricci))
    gg = np.einsum("il,jk->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    return riemann - gs / (n - 2) + r / ((n - 1) * (n - 2)) * gg


def check_curvature(chart: Chart, x, g, ginv, riemann, ricci, r, nabla_ricci,
                    dr, christoffel=None) -> Problems:
    """Identities every curvature package satisfies, plus the metric and
    (when given) the Christoffel symbols against the chart's own formula."""
    p = Problems()
    g, ginv, R = np.asarray(g, float), np.asarray(ginv, float), np.asarray(riemann, float)
    ricci, nabla_ricci, dr = (np.asarray(a, float) for a in (ricci, nabla_ricci, dr))
    n = len(x)
    p.close("metric vs chart formula", g, chart.metric(np.asarray(x, float)), 1e-13)
    p.close("g * g^-1 = I", g @ ginv, np.eye(n), 1e-12)
    if christoffel is not None:
        p.close("Christoffel vs finite differences", christoffel,
                christoffel_reference(chart, x), FD_TOL)
    scale = 1.0 + max_abs(R)
    p.need("R antisymmetric in (i,j)", max_abs(R + np.einsum("jikl->ijkl", R)) / scale)
    p.need("R antisymmetric in (k,l)", max_abs(R + np.einsum("ijlk->ijkl", R)) / scale)
    p.need("R pair symmetric", max_abs(R - np.einsum("klij->ijkl", R)) / scale)
    p.need("first Bianchi", max_abs(R + np.einsum("jkil->ijkl", R)
                                    + np.einsum("kijl->ijkl", R)) / scale)
    p.close("Ricci = g^il R_ijkl", ricci, np.einsum("il,ijkl->jk", ginv, R))
    p.need("r = g^jk S_jk", abs(r - float(np.einsum("jk,jk->", ginv, ricci))) / (1 + abs(r)))
    p.need("nabla S symmetric", max_abs(nabla_ricci - np.einsum("ikj->ijk", nabla_ricci))
           / (1.0 + max_abs(nabla_ricci)))
    div = 2.0 * np.einsum("jk,jik->i", ginv, nabla_ricci)
    p.need("contracted second Bianchi",
           max_abs(dr - div) / (1.0 + max_abs(dr) + max_abs(nabla_ricci)))
    return p


def check_constant_curvature(p: Problems, g, riemann, ricci, r, nabla_ricci, dr,
                             kappa: float) -> None:
    """Closed forms of a space of constant curvature kappa."""
    g = np.asarray(g, float)
    n = g.shape[0]
    gg = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    p.close("R = kappa (g_jk g_il - g_ik g_jl)", riemann, kappa * gg, 1e-12)
    p.close("S = kappa (n-1) g", ricci, kappa * (n - 1) * g, 1e-12)
    p.close("r = kappa n (n-1)", r, kappa * n * (n - 1), 1e-12)
    p.close("nabla S = 0", nabla_ricci, np.zeros((n, n, n)), 1e-12)
    p.close("dr = 0", dr, np.zeros(n), 1e-12)


def golden_closed_forms(p: Problems, name: str, x, g, riemann, ricci, r,
                        nabla_ricci, dr) -> None:
    if name == "sphere2" or name == "sphere3":
        check_constant_curvature(p, g, riemann, ricci, r, nabla_ricci, dr, 1.0)
    elif name == "euclidean3":
        check_constant_curvature(p, g, riemann, ricci, r, nabla_ricci, dr, 0.0)
    elif name == "conformal4":
        # g = exp(2 x1) I:  S = 2 (e1 e1^T - I),  r = -6 exp(-2 x1)
        e1 = np.zeros(4)
        e1[0] = 1.0
        p.close("S of exp(2 x1) I", ricci, 2.0 * (np.outer(e1, e1) - np.eye(4)), 1e-12)
        p.close("r of exp(2 x1) I", r, -6.0 * math.exp(-2.0 * x[0]), 1e-12)


def check_classification(result: dict, g, riemann, ricci, r, tol: float,
                         golden: str | None = None) -> Problems:
    """Verdicts and norms of `classification_report(...).to_dict()` against
    an independent Weyl tensor and Einstein fit of verified tensors."""
    p = Problems()
    g, R, S = np.asarray(g, float), np.asarray(riemann, float), np.asarray(ricci, float)
    n = g.shape[0]
    scale = 1.0 + max_abs(R)
    w = max_abs(weyl(g, R, S, r))
    p.need("weyl_norm", abs(result["weyl_norm"] - w) / scale)
    if n >= 4 and abs(w - tol * scale) > 1e-6 * scale:
        want = w <= tol * scale
        if result["conformally_flat"] != want:
            p.append(f"conformally_flat is {result['conformally_flat']}, expected {want}")
    ein = max_abs(S - (r / n) * g) / (1.0 + max_abs(S))
    p.need("einstein residual", abs(result["einstein"]["residual"] - ein))
    if abs(ein - tol) > 1e-6:
        want = "pass" if ein <= tol else "fail"
        if result["einstein"]["verdict"] != want:
            p.append(f"einstein verdict {result['einstein']['verdict']}, expected {want}")
    expected = {"sphere2": {"einstein": "pass"}, "sphere3": {"einstein": "pass"},
                "euclidean3": {"einstein": "pass"},
                "conformal4": {"einstein": "fail", "conformally_flat": True}}
    for key, want in expected.get(golden, {}).items():
        got = result[key]["verdict"] if key == "einstein" else result[key]
        if got != want:
            p.append(f"{golden}: {key} is {got!r}, expected {want!r}")
    return p


def check_one_forms(a, b, d, residual, kernel_dim, ricci, nabla_ricci) -> Problems:
    """The recovered (a, b, d) solve the least-squares problem
    nabla_i S_jk ~ a_i S_jk + b_j S_ik + d_k S_ij: the reported residual is
    the fit's, the normal equations hold and the kernel matches the rank."""
    p = Problems()
    S, NS = np.asarray(ricci, float), np.asarray(nabla_ricci, float)
    a, b, d = (np.asarray(v, float) for v in (a, b, d))
    n = S.shape[0]
    err = (np.einsum("i,jk->ijk", a, S) + np.einsum("j,ik->ijk", b, S)
           + np.einsum("k,ij->ijk", d, S)) - NS
    p.need("reported wrs residual", abs(residual - max_abs(err) / (1.0 + max_abs(NS))))
    grad = np.concatenate([np.einsum("pjk,jk->p", err, S), np.einsum("ipk,ik->p", err, S),
                           np.einsum("ijp,ij->p", err, S)])
    p.need("normal equations", max_abs(grad) / ((1.0 + max_abs(S)) * (1.0 + max_abs(NS)) * n * n))
    eye = np.eye(n)
    design = np.concatenate([np.einsum("ip,jk->ijkp", eye, S), np.einsum("jp,ik->ijkp", eye, S),
                             np.einsum("kp,ij->ijkp", eye, S)], axis=3).reshape(n ** 3, 3 * n)
    sigma = np.linalg.svd(design, compute_uv=False)
    if kernel_dim != 3 * n - int(np.sum(sigma > 1e-10 * sigma[0])):
        p.append(f"kernel_dim {kernel_dim} disagrees with the design rank")
    return p


def check_weak_symmetry(value, nabla_riemann, riemann, a, b, d) -> Problems:
    """The curvature-level residual with c = b, e = d, recomputed."""
    nr, R = np.asarray(nabla_riemann, float), np.asarray(riemann, float)
    rhs = (np.einsum("m,ijkl->mijkl", a, R) + np.einsum("i,mjkl->mijkl", b, R)
           + np.einsum("j,imkl->mijkl", b, R) + np.einsum("k,ijml->mijkl", d, R)
           + np.einsum("l,ijkm->mijkl", d, R))
    p = Problems()
    p.need("weak symmetry residual", abs(value - max_abs(nr - rhs) / (1.0 + max_abs(nr))))
    return p


def check_nabla_riemann(nabla_riemann, ginv, nabla_ricci) -> Problems:
    """Second Bianchi identity and its contraction to nabla S."""
    nr = np.asarray(nabla_riemann, float)
    p = Problems()
    scale = 1.0 + max_abs(nr)
    p.need("second Bianchi", max_abs(nr + np.einsum("ijmkl->mijkl", nr)
                                     + np.einsum("jmikl->mijkl", nr)) / scale)
    p.close("g^il nabla_m R_ijkl = nabla_m S_jk",
            np.einsum("il,mijkl->mjk", ginv, nr), nabla_ricci)
    return p


# -- command-line outputs ---------------------------------------------------

def _load(stdout: bytes, p: Problems):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        p.append(f"stdout is not JSON: {exc}")
        return None


def check_cli(chart: Chart, command: str, golden: bool, rc: int, stdout: bytes,
              stderr: bytes, curvature: dict | None) -> Problems:
    """One `curvature` / `classify` / `wrs` command.  `curvature` is the
    parsed result of the same chart's curvature command, already checked by
    this function, or None if that command itself is being checked."""
    p = Problems()
    if chart.name == "euclidean3" and command == "wrs":
        if rc != 2 or stdout or b"Ricci tensor is numerically zero" not in stderr:
            p.append(f"expected exit 2 with DegenerateRicci, got exit {rc}")
        return p
    if rc != 0:
        return Problems([f"exit {rc}: {stderr.decode(errors='replace').strip()}"])
    doc = _load(stdout, p)
    if doc is None:
        return p
    if doc.get("exit_status") != 0 or doc.get("input", {}).get("command") != command:
        p.append("envelope does not match the command")
    res = doc.get("result", {})
    if command == "curvature":
        x = res["point"]
        p.extend(check_curvature(chart, x, res["g"], res["g_inverse"], res["riemann"],
                                 res["ricci"], res["scalar_curvature"], res["nabla_ricci"],
                                 res["dr"], christoffel=res["christoffel"]))
        if golden:
            golden_closed_forms(p, chart.name, x, res["g"], res["riemann"], res["ricci"],
                                res["scalar_curvature"], res["nabla_ricci"], res["dr"])
        return p
    if curvature is None:
        p.append("no verified curvature output to check against")
        return p
    c = curvature
    if command == "classify":
        p.extend(check_classification(res, c["g"], c["riemann"], c["ricci"],
                                      c["scalar_curvature"], doc["input"]["tol"],
                                      chart.name if golden else None))
    else:
        p.extend(check_one_forms(res["a"], res["b"], res["d"], res["residual"],
                                 res["kernel_dim"], c["ricci"], c["nabla_ricci"]))
        if chart.name in ("sphere2", "sphere3"):
            p.close("parallel Ricci gives zero forms",
                    np.concatenate([res["a"], res["b"], res["d"]]), np.zeros(3 * chart.n))
    return p


def check_verify(rc: int, stdout: bytes, n: int, trials: int, seed: int
                 ) -> tuple[int, int, Problems]:
    """A `verify --section all` run: exit 0 and every check passing.
    Returns the number of harness checks (the operations), how many of them
    failed, and the problems.  A problem with the run as a whole fails at
    least one operation."""
    p = Problems()
    doc = _load(stdout, p) if rc in (0, 1) else None
    if doc is None:
        p.append(f"verify exited {rc}")
        return 1, 1, p
    checks = doc.get("checks", [])
    inp = doc.get("input", {})
    if (inp.get("n"), inp.get("trials"), inp.get("seed")) != (n, trials, seed):
        p.append(f"input echo {inp} does not match the request")
    if rc != 0 or doc.get("exit_status") != 0:
        p.append(f"exit {rc}, exit_status {doc.get('exit_status')}")
    if sorted(doc.get("verdicts", {}).items()) != [(f"section{s}", "pass") for s in (2, 3, 4)]:
        p.append(f"verdicts {doc.get('verdicts')}")
    if sum(c["name"].split(".", 1)[1].startswith("guard_") for c in checks) != 6:
        p.append("expected six guard trials")
    failed = 0
    for c in checks:
        res = c["max_residual"]
        if not (c["passed"] and isinstance(res, float | int) and res <= inp.get("tol", 0)):
            failed += 1
            p.append(f"check {c['name']} failed: {res} {c['note']}")
    ops = max(len(checks), 1)
    return ops, min(ops, max(failed, 1 if p else 0)), p
