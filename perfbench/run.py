#!/usr/bin/env python3
"""curvkit's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and measures the curvkit in its
src/ directory.  Load comes from this one process in a closed loop with one
client: curvkit processes run one at a time.  Workloads (see README.md):

    cli-cold    fresh `python -m curvkit.cli` per command: curvature,
                classify and wrs on the golden and seeded dense charts
    chart-warm  one dense n = 5 chart, set up and evaluated at the same seeded
                points in each of three processes
    verify-n5   `curvkit verify --section all --trials 100` at n = 5
    verify-n8   the same at n = 8

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  Every output is checked by
oracle.py; a failed check counts as a failed operation.  Every time it
reports is a wall time scaled to the machine's reference speed by probe.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import oracle
from child import TRACE_MARK
from inputs import GOLDEN, dense_chart, golden_chart
from probe import Clock, pin
from tracer import BUNDLE, COUNTS, NABLA, SELF, TIMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIMEOUT = 170                    # seconds per program process
SEGMENT_S = 1.0                  # probe a running program process this often

WORKLOADS = ("cli-cold", "chart-warm", "verify-n5", "verify-n8")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}
# Short names of some (workload, metric) pairs, printed next to the metric
# and used in README.md.
ALIASES = {("cli-cold", "ops_per_s"): "cmds_per_s", ("cli-cold", "op_p50_s"): "cmd_p50_s",
           ("chart-warm", "ops_per_s"): "points_per_s",
           ("verify-n5", "op_p50_s"): "n5_s", ("verify-n8", "op_p50_s"): "n8_s"}
PER_LAYER = {"import.cli_s": "s", "import.scipy_s": "s",
             **{m: "s" for m in TIMES}, **{m: "s" for m in SELF},
             **{m: "count" for m in COUNTS},
             "chart.first_bundle_s": "s", "chart.nabla_first_s": "s",
             "chart.bundle_warm_s": "s", "chart.nabla_warm_s": "s",
             "trace.overhead_frac": "ratio"}
SETUP_REPEATS = 3


class Run:
    """Work directory, program launcher and operation tally of one run."""

    def __init__(self, seed: int, seconds: float, trace: bool, tiny: bool):
        self.seed, self.seconds, self.trace, self.tiny = seed, seconds, trace, tiny
        self.work = ROOT / ".perfbench-work" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.clock = Clock()
        self.wall = self.scaled = 0.0           # sums over program processes
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def python(self, *args: str, stop: bool = True) -> tuple[int, bytes, bytes, float]:
        """One program process: exit code, stdout, stderr, scaled wall seconds.

        The machine's speed drifts within a long process too, so every
        SEGMENT_S the process is stopped, the probe runs on the core it
        frees, and each segment is scaled by the probes at its two ends.
        Not with `stop=False` (a process that probes itself), nor in a
        traced run, whose spans would count the stops."""
        stop = stop and not self.trace
        start = t = time.perf_counter()
        p = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        scaled = 0.0
        try:
            while True:
                try:
                    out, err = p.communicate(timeout=SEGMENT_S if stop else TIMEOUT)
                    break
                except subprocess.TimeoutExpired:
                    if not stop or time.perf_counter() - start > TIMEOUT:
                        raise
                p.send_signal(signal.SIGSTOP)
                if stopped(p.pid):
                    wall = time.perf_counter() - t
                    scaled += self.clock.scale(wall)
                    self.wall += wall
                    t = time.perf_counter()
                p.send_signal(signal.SIGCONT)
        except BaseException:
            p.kill()
            p.communicate()
            raise
        wall = time.perf_counter() - t
        scaled += self.clock.scale(wall)
        self.wall += wall
        self.scaled += scaled
        return p.returncode, out, err, scaled

    def tally(self, ops: int, failed: int, problems) -> None:
        self.attempted += ops
        self.failed += failed
        self.problems.extend(problems)

    def setup_times(self) -> list[float]:
        """Wall time of a fresh interpreter that imports curvkit.cli."""
        out = []
        for _ in range(SETUP_REPEATS):
            rc, _, err, wall = self.python("-c", "import curvkit.cli")
            if rc != 0:
                raise RuntimeError(f"import curvkit.cli failed: {err.decode()}")
            out.append(wall)
        return out

    def import_layers(self) -> dict:
        """import.cli_s: fresh `import curvkit.cli` minus a bare interpreter;
        import.scipy_s: the outermost scipy modules in `-X importtime`."""
        bare = statistics.median(self.python("-c", "pass")[3] for _ in range(SETUP_REPEATS))
        full = statistics.median(self.setup_times())
        importtime = self.python("-X", "importtime", "-c", "import curvkit.cli")[2]
        return {"import.cli_s": full - bare, "import.scipy_s": scipy_import_s(importtime.decode())}


def stopped(pid: int) -> bool:
    """Wait until a process that was sent SIGSTOP has stopped; False if it
    has ended instead."""
    while True:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            return False
        if state in "tT":
            return True
        if state in "ZX":
            return False
        time.sleep(0.0005)


def scipy_import_s(importtime: str) -> float:
    """Cumulative import seconds of the scipy modules that no other scipy
    module imported.  `-X importtime` lists a module after its imports,
    indented two spaces per level."""
    stack: list[tuple[int, float]] = []         # (depth, scipy seconds below)
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue                            # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        below = 0.0
        while stack and stack[-1][0] > depth:
            below += stack.pop()[1]
        module = name.strip()
        if module == "scipy" or module.startswith("scipy."):
            below = int(cum) * 1e-6
        stack.append((depth, below))
    return sum(s for _, s in stack)


def round_robin(ops: list, seconds: float, run_one) -> None:
    """Run `ops` in order, round after round: two full rounds at least, so
    that every operation is repeated and its outputs compared, then until
    `seconds` of wall time have passed."""
    start = time.perf_counter()
    done = 0
    while done < 2 * len(ops) or time.perf_counter() - start < seconds:
        run_one(ops[done % len(ops)])
        done += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def parse_trace(stderr: bytes) -> tuple[dict | None, bytes]:
    """Split the traced CLI's stderr into its trace summary and the rest."""
    lines = stderr.decode(errors="replace").splitlines(keepends=True)
    if lines and lines[-1].startswith(TRACE_MARK):
        return json.loads(lines[-1][len(TRACE_MARK):]), "".join(lines[:-1]).encode()
    return None, stderr


class LayerTotals:
    """Per-layer sums over the traced processes of a run."""

    def __init__(self) -> None:
        self.totals = dict.fromkeys([*TIMES, *SELF, *COUNTS], 0.0)
        self.first = {BUNDLE: [], NABLA: []}      # first call of each process
        self.warm = {BUNDLE: [0.0, 0], NABLA: [0.0, 0]}

    def add(self, summary: dict) -> None:
        for part in ("times", "self", "counts"):
            for m, v in summary[part].items():
                self.totals[m] += v
        for name in (BUNDLE, NABLA):
            self.warm[name][0] += summary["warm"][name][0]
            self.warm[name][1] += summary["warm"][name][1]
            if name in summary["first"]:
                self.first[name].append(summary["first"][name])

    def metrics(self, ops: int) -> dict:
        """Totals per operation; first and warm calls per call."""
        out = {m: v / ops for m, v in self.totals.items()}
        for name, first, warm in ((BUNDLE, "chart.first_bundle_s", "chart.bundle_warm_s"),
                                  (NABLA, "chart.nabla_first_s", "chart.nabla_warm_s")):
            out[first] = statistics.mean(self.first[name]) if self.first[name] else 0.0
            s, c = self.warm[name]
            out[warm] = s / c if c else 0.0
        return out


# --------------------------------------------------------------------------
# Workloads

def cli_cold(run: Run) -> dict:
    if run.tiny:
        charts = [golden_chart("sphere2"), golden_chart("euclidean3"),
                  dense_chart(run.seed, 3)]
    else:
        charts = ([golden_chart(name) for name in GOLDEN]
                  + [dense_chart(run.seed, n) for n in (3, 4, 5)])
    golden = {c.name for c in charts if not c.name.startswith("dense")}
    for c in charts:
        (run.work / f"{c.name}.txt").write_text(c.manifest)
    ops = [(cmd, c) for c in charts for cmd in ("curvature", "classify", "wrs")]
    random.Random(run.seed).shuffle(ops)

    first: dict[tuple, tuple] = {}               # key -> (rc, stdout, stderr)
    walls: dict[tuple, list[float]] = {}
    mismatched: dict[tuple, int] = {}
    traced_walls, untraced_walls = [], []
    layers = LayerTotals()

    def one(op):
        cmd, chart = op
        key = (cmd, chart.name)
        args = [cmd, f"{chart.name}.txt"]
        rc, out, err, wall = run.python("-m", "curvkit.cli", *args)
        walls.setdefault(key, []).append(wall)
        if first.setdefault(key, (rc, out, err)) != (rc, out, err):
            mismatched[key] = mismatched.get(key, 0) + 1
        if run.trace:
            rc2, out2, err2, wall2 = run.python(str(HERE / "child.py"), "cli", *args)
            summary, err2 = parse_trace(err2)
            if summary is None or (rc2, out2, err2) != (rc, out, err):
                mismatched[key] = mismatched.get(key, 0) + 1
            else:
                layers.add(summary)
            untraced_walls.append(wall)
            traced_walls.append(wall2)

    round_robin(ops, run.seconds, one)

    # Oracle: curvature outputs first, since classify and wrs are checked
    # against the (verified) tensors of the same chart.
    verified: dict[str, dict] = {}
    bad: dict[tuple, list[str]] = {}
    for cmd in ("curvature", "classify", "wrs"):
        for _, chart in (op for op in ops if op[0] == cmd):
            key = (cmd, chart.name)
            rc, out, err = first[key]
            p = oracle.check_cli(chart, cmd, chart.name in golden, rc, out, err,
                                 verified.get(chart.name))
            if cmd == "curvature" and not p:
                verified[chart.name] = json.loads(out)["result"]
            if mismatched.get(key):
                p.append(f"{mismatched[key]} repeated or traced run(s) not "
                         "byte-identical to the first")
            if p:
                bad[key] = [f"{cmd} {chart.name}: {q}" for q in p]
    for key, w in walls.items():
        run.tally(len(w), len(w) if key in bad else 0, bad.get(key, []))

    if run.trace:
        return {**run.import_layers(), **layers.metrics(sum(map(len, walls.values()))),
                "trace.overhead_frac": sum(traced_walls) / sum(untraced_walls) - 1.0}
    medians = [statistics.median(w) for w in walls.values()]
    return {"ops_per_s": len(medians) / sum(medians),
            "op_p50_s": statistics.median(medians)}


def chart_warm(run: Run) -> dict:
    n, points = (3, 2) if run.tiny else (5, 6)
    base = [str(HERE / "child.py"), "chart-warm", "--seed", str(run.seed),
            "--n", str(n), "--points", str(points)]

    def child(*extra) -> dict:
        rc, out, err, _ = run.python(*base, *extra, stop=False)   # it probes itself
        if rc != 0:
            raise RuntimeError(f"chart-warm child failed: {err.decode()}")
        return json.loads(out.decode().splitlines()[-1])

    def tally(results: list[dict]) -> None:
        """Every point's results must be the same in every process."""
        first = results[0]["digests"]
        for res in results:
            bad = {int(k) for k, d in res["digests"].items() if d != first[k]}
            wrong = sum(j % points in bad for j in range(len(res["point_s"])))
            run.tally(res["attempted"], min(res["attempted"], res["failed"] + wrong),
                      res["problems"] + [f"point {k}: results differ between processes"
                                         for k in sorted(bad)])

    if run.trace:
        plain = child()
        traced = child("--trace")
        tally([plain, traced])
        layers = LayerTotals()
        layers.add(traced["trace"])
        return {**run.import_layers(), **layers.metrics(len(traced["point_s"])),
                "trace.overhead_frac": sum(traced["point_s"]) / sum(plain["point_s"]) - 1.0}
    results = [child("--seconds", str(run.seconds / SETUP_REPEATS))
               for _ in range(SETUP_REPEATS)]
    tally(results)
    t = [s for res in results for s in res["point_s"]]
    return {"setup_s": statistics.median(res["setup_s"] for res in results),
            "ops_per_s": len(t) / sum(t), "op_p50_s": statistics.median(t)}


def verify(run: Run, n: int) -> dict:
    n, trials = (4, 3) if run.tiny else (n, 100)
    args = ["verify", "--section", "all", "--n", str(n), "--trials", str(trials),
            "--seed", str(run.seed)]
    walls, traced_walls = [], []
    first: list[tuple] = []                      # the first (rc, stdout, stderr)
    layers = LayerTotals()

    def one(_):
        rc, out, err, wall = run.python("-m", "curvkit.cli", *args)
        walls.append(wall)
        ops, failed, p = oracle.check_verify(rc, out, n, trials, run.seed)
        first[:] = first or [(rc, out, err)]
        if first[0] != (rc, out, err):
            failed = ops
            p.append("stdout differs from the first invocation")
        if run.trace:
            rc2, out2, err2, wall2 = run.python(str(HERE / "child.py"), "cli", *args)
            summary, err2 = parse_trace(err2)
            if summary is None or (rc2, out2, err2) != (rc, out, err):
                failed = ops
                p.append("traced stdout differs from the untraced")
            else:
                layers.add(summary)
            traced_walls.append(wall2)
        run.tally(ops, failed, [f"verify n={n}: {q}" for q in p])

    round_robin([None], run.seconds, one)
    if run.trace:
        return {**run.import_layers(), **layers.metrics(len(walls)),
                "trace.overhead_frac": sum(traced_walls) / sum(walls) - 1.0}
    return {"ops_per_s": len(walls) / sum(walls), "op_p50_s": statistics.median(walls)}


# --------------------------------------------------------------------------

def machine_info() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: os.environ.get(k, "unset") for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "curvkit" / "__init__.py").is_file():
        print(f"error: no curvkit source under {SRC}", file=sys.stderr)
        return 2

    pin()
    run = Run(args.seed, args.seconds, bool(args.trace), args.tiny)
    try:
        if args.workload == "cli-cold":
            metrics = cli_cold(run)
        elif args.workload == "chart-warm":
            metrics = chart_warm(run)
        else:
            metrics = verify(run, int(args.workload[-1]))
        if not run.trace:
            metrics.setdefault("setup_s", statistics.median(run.setup_times()))
            metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        run.close()

    units = PER_LAYER if run.trace else END_TO_END
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    print(f"speed: {run.wall:.4g} s of program wall time read as {run.scaled:.4g} s "
          f"at the reference speed (the machine ran at {run.scaled / run.wall:.3g} of it)")
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    for name, unit in units.items():
        alias = ALIASES.get((args.workload, name))
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}"
              + (f"  ({alias})" if alias else ""))
    print(f"{args.workload} fail_frac = {run.failed / max(run.attempted, 1):.6g}"
          f"  ({run.failed} of {run.attempted} operations)")
    print(json.dumps({"correct": run.failed == 0, "attempted": max(run.attempted, 1),
                      "failed": run.failed if run.attempted else 1,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
