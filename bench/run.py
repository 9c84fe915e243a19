"""End-to-end and per-layer benchmark of elongate.

    python3 bench/run.py --workload quad-fine --seed 1 --seconds 44 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, so nothing needs installing.  Workloads run
one at a time, each repetition in its own child process (see
``workloads.py``).  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports the per-layer metrics from a
traced run, kernel probes and the tracing overhead.  Every repetition is
checked against ``reference.json``, the outputs of the seed commit.

Stdout ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; a table with quartiles and sample counts and a ``detail``
line with the machine fingerprint come before it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402

#: Fresh set-up processes timed after each repetition (after one untimed
#: warm-up that fills the bytecode cache), so that set-up is sampled across
#: the whole run and not in one burst of a few seconds at its start.
SETUP_PER_REP = 2
#: Untraced repetitions per run, at least; more while ``--seconds`` lasts.
MIN_REPS = 3
#: Wall-clock budget of one benchmark run; a child still running when it
#: ends is killed and the run fails without a result.
RUN_BUDGET_S = 170.0

#: Relative tolerances of the correctness gate.  Norm columns are compared
#: in norm units (p-th roots) with the fit floor as absolute slack: below the
#: floor values are solver noise.  Warm- and cold-started sweeps of the seed,
#: two solve paths to the same tolerance, differ by at most 1e-15 in J_ell,
#: 1e-10 in total_grad_energy and half a floor in the norms.  A 100x looser
#: grad_tol moves the p4-sweep norms at ell = 4 by 7 floors, which 1e-6 catches.
RTOL = {"J_ell": 1e-10, "total_grad_energy": 1e-8, "err_grad_p": 1e-6, "hgrad_p": 1e-6}
#: Decay rate of the quadratic box sweep: pi/2, up to O(h^2) discretisation
#: error (5.4e-4 at h = 1/32).
RATE_TOL = 2e-3


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def fingerprint(root: str) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor() or platform.machine(),
        **caches,
        "python": platform.python_version(),
        "commit": commit,
    }


class Runner:
    """Starts children in the checkout and reaps each with ``os.wait4``.

    ``wait4`` gives the peak resident memory of that one child;
    ``RUSAGE_CHILDREN`` would give the maximum over every child so far.
    """

    def __init__(self, root: str, work: str):
        self.root, self.work = root, work
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        # at most nproc busy threads: the sweep's own pool, no BLAS pool
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.count = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def spawn(self, argv: list[str], extra_env: dict | None = None) -> dict:
        self.count += 1
        out_path = os.path.join(self.work, f"child-{self.count}.out")
        err_path = os.path.join(self.work, f"child-{self.count}.err")
        env = dict(self.env, **(extra_env or {}))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"run budget of {RUN_BUDGET_S:g} s exceeded")
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": stdout, "stderr": stderr}

    def child(self, *args: str, env: dict | None = None) -> dict:
        res = self.spawn([sys.executable, os.path.join(HERE, "child.py"), *args], env)
        if res["code"] != 0:
            raise BenchError(f"child {' '.join(args)} exited {res['code']}:\n{res['stderr'][-2000:]}")
        res["payload"] = json.loads(res["stdout"].strip().splitlines()[-1])
        return res


def _norm(value: float, p: float) -> float:
    return value ** (1.0 / p) if value >= 0 else float("nan")


def check_records(records: list[dict], ref: dict) -> list[str]:
    """Failures of one repetition's records against the stored seed outputs."""
    problems = []
    by_ell = {float(r["ell"]): r for r in records}
    p, floor = ref["p"], ref["floor"]
    for expect in ref["records"]:
        ell = float(expect["ell"])
        got = by_ell.get(ell)
        if got is None:
            problems.append(f"ell={ell:g}: missing")
            continue
        if not got["converged"]:
            problems.append(f"ell={ell:g}: not converged")
            continue
        for key, rtol in RTOL.items():
            a, b = float(got[key]), float(expect[key])
            atol = 0.0
            if key in ("err_grad_p", "hgrad_p"):
                a, b, atol = _norm(a, p), _norm(b, p), floor
            if not (math.isfinite(a) and abs(a - b) <= rtol * max(abs(a), abs(b)) + atol):
                problems.append(f"ell={ell:g}: {key} {got[key]!r} != {expect[key]!r}")
                break
    return problems  # at most one entry per record


def fitted_rate(records: list[dict], floor: float) -> float:
    """Least-squares decay rate of sqrt(err_grad_p) over ell (the A1 fit)."""
    pts = [(float(r["ell"]), math.log(math.sqrt(r["err_grad_p"])))
           for r in records if r["err_grad_p"] > 0 and math.sqrt(r["err_grad_p"]) > floor]
    if len(pts) < 3:
        return float("nan")
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    slope = sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)
    return -slope


def check_run(name: str, rep: dict, ref: dict) -> tuple[int, int, list[str]]:
    """Checks one repetition: one check per ell record plus one run-level check.

    Returns the checks attempted, the checks failed and what failed.
    """
    problems = check_records(rep["records"], ref)
    run_level = []
    if name == "cli-ball":
        if rep["exit_code"] != ref["exit_code"]:
            run_level.append(f"exit code {rep['exit_code']} != {ref['exit_code']}")
        if rep["verdicts"] != ref["verdicts"]:
            run_level.append(f"verdicts {rep['verdicts']} != {ref['verdicts']}")
        if rep["csv_header"] != ref["csv_header"]:
            run_level.append("sweep.csv header changed")
    else:
        if not rep["limit_converged"]:
            run_level.append("limit solve not converged")
        if name == "quad-fine":
            rate = fitted_rate(rep["records"], ref["floor"])
            if not abs(rate - math.pi / 2) <= RATE_TOL:
                run_level.append(f"decay rate {rate!r} is not pi/2 within {RATE_TOL:g}")
    return len(ref["records"]) + 1, len(problems) + bool(run_level), problems + run_level


def read_cli_outputs(out_dir: str) -> dict:
    rows, header = [], ""
    path = os.path.join(out_dir, "sweep.csv")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            fh.seek(0)
            for row in csv.DictReader(fh):
                rows.append({k: (v == "1" if k == "converged" else float(v)) for k, v in row.items()})
    verdicts = {}
    path = os.path.join(out_dir, "verdicts.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            verdicts = {v["name"]: [v["applicable"], v["passed"]] for v in json.load(fh)}
    return {"records": rows, "verdicts": verdicts, "csv_header": header}


def run_rep(runner: Runner, name: str, out_dir: str) -> dict:
    """One untraced repetition of a workload in a fresh process."""
    wl = WORKLOADS[name]
    if wl["kind"] == "library":
        res = runner.child("run", name)
        return dict(res["payload"], rss_mb=res["rss_mb"])
    os.makedirs(out_dir)
    cfg_path = write_config(name, out_dir)
    res = runner.spawn(
        [sys.executable, "-m", "elongate.cli", "sweep", "--config", cfg_path, "--out", out_dir],
        {"ELONGATE_THREADS": str(wl["threads"])},
    )
    rep = read_cli_outputs(out_dir)
    rep.update(wall_s=res["wall_s"], rss_mb=res["rss_mb"], exit_code=res["code"])
    return rep


def run_traced(runner: Runner, name: str, out_dir: str) -> dict:
    """One traced repetition; the CLI workload runs ``cli.main`` in the traced child."""
    wl = WORKLOADS[name]
    os.makedirs(out_dir)
    extra = {"ELONGATE_THREADS": str(wl["threads"])} if wl["kind"] == "cli" else None
    res = runner.child("traced", name, out_dir, env=extra)
    rep = res["payload"]
    if wl["kind"] == "cli":
        # like the untraced CLI run, wall time is process start to exit
        rep.update(read_cli_outputs(out_dir), span_wall_s=rep["wall_s"], wall_s=res["wall_s"])
    else:
        rep["span_wall_s"] = rep["wall_s"]
    return rep


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(runner: Runner, name: str, seconds: float, trace: bool, seed: int) -> dict:
    """Runs the workload and returns samples per metric, checks and details."""
    ref_path = os.path.join(HERE, "reference.json")
    with open(ref_path, encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"][name]
    samples: dict[str, list[float]] = {}
    checks = {"attempted": 0, "failed": 0, "problems": []}
    details: dict = {}

    def checked(rep: dict) -> dict:
        attempted, failed, problems = check_run(name, rep, ref)
        checks["attempted"] += attempted
        checks["failed"] += failed
        checks["problems"] += problems
        return rep

    def add(metric: str, value: float) -> None:
        samples.setdefault(metric, []).append(float(value))

    reps = 0
    if not trace:
        payload = runner.child("setup", name)["payload"]  # warm-up: bytecode cache, page cache
        details["numpy"] = payload["numpy"]
        src = os.path.realpath(os.path.join(runner.root, "src"))
        if not os.path.realpath(payload["elongate_file"]).startswith(src + os.sep):
            raise BenchError(f"elongate was imported from {payload['elongate_file']}, not {src}")
        start, took = time.perf_counter(), 0.0
        runtimes: dict[float, list[float]] = {}
        # start another repetition only if it should end within --seconds
        while reps < MIN_REPS or time.perf_counter() - start + took <= seconds:
            t0 = time.perf_counter()
            rep = checked(run_rep(runner, name, os.path.join(runner.work, f"rep-{reps}")))
            reps += 1
            add("wall_s", rep["wall_s"])
            for r in rep["records"]:
                runtimes.setdefault(float(r["ell"]), []).append(r["runtime_ms"] / 1e3)
            add("peak_rss_mb", rep["rss_mb"])
            for _ in range(SETUP_PER_REP):
                add("setup_s", runner.child("setup", name)["payload"]["setup_s"])
            took = time.perf_counter() - t0
        # the critical solve is the ell with the largest median runtime; taking
        # each repetition's largest instead would let noise on near-critical
        # ells push the value up
        samples["solve_s_max"] = max(runtimes.values(), key=statistics.median)
        add("ok_frac", 1.0 - checks["failed"] / checks["attempted"])
        return {"samples": samples, "checks": checks, "details": details, "reps": reps}

    # the untraced repetition sits between the two traced ones, so that a
    # drift in machine speed during the run does not read as tracing overhead
    traced = [checked(run_traced(runner, name, os.path.join(runner.work, "traced-0")))]
    untraced = checked(run_rep(runner, name, os.path.join(runner.work, "untraced")))
    traced.append(checked(run_traced(runner, name, os.path.join(runner.work, "traced-1"))))
    payload = runner.child("probe", str(seed))["payload"]
    probes, details["numpy"] = payload["probes"], payload["numpy"]
    for rep in traced:
        for key, value in rep["layers"].items():
            add(key, value)
        add("study.solve_overlap", sum(r["runtime_ms"] for r in rep["records"]) / 1e3 / rep["span_wall_s"])
        add("trace.overhead", rep["wall_s"] / untraced["wall_s"] - 1.0)
    for key, value in probes.items():
        add(key, value)

    # Structural self-checks: a failure means the trace itself is wrong.
    trace_problems = []
    for i, rep in enumerate(traced):
        if max(rep["thread_self_s"], default=0.0) > rep["span_wall_s"] * (1 + 1e-9):
            trace_problems.append(f"traced run {i}: self times of one thread exceed the wall time")
        if "limit_iters" in rep and rep["layers"]["solver.iters"] != sweep_iters(rep):
            trace_problems.append(f"traced run {i}: solver.iters from spans disagrees with the sweep")
    for key in EXACT_COUNTS:
        values = {rep["layers"][key] for rep in traced}
        if len(values) != 1:
            trace_problems.append(f"{key} differs between traced runs: {sorted(values)}")
    # Expectations about the program's current algorithms: reported, not gated,
    # because a later solver may rightly change them.
    layers = traced[0]["layers"]
    quadratic = WORKLOADS[name]["config"]["density"]["kind"] == "quadratic"
    expectations = {
        "trials_vs_iters": (layers["solver.trials"] == 0) if quadratic
        else (layers["solver.trials"] >= layers["solver.iters"]),
        "grad_calls_ge_iters": layers["density.grad_calls"] >= layers["solver.iters"],
    }
    details.update(absent_spans=traced[0]["absent"], trace_problems=trace_problems,
                   expectations=expectations, untraced_wall_s=untraced["wall_s"])
    return {"samples": samples, "checks": checks, "details": details, "reps": len(traced),
            "trace_ok": not trace_problems}


def sweep_iters(rep: dict) -> int:
    """Iterations the sweep itself reports: its records plus the limit solve."""
    return int(sum(r["iters"] for r in rep["records"]) + rep["limit_iters"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="seeds the kernel probes' random fields")
    parser.add_argument("--seconds", type=float, default=44.0, help="untraced measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    work = os.path.join(root, ".bench_run", str(os.getpid()))
    try:
        if not os.path.isfile(os.path.join(root, "src", "elongate", "__init__.py")):
            raise BenchError(f"no elongate sources under {os.path.join(root, 'src')}")
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        os.makedirs(work)
        result = measure(Runner(root, work), args.workload, args.seconds, bool(args.trace), args.seed)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    samples, checks = result["samples"], result["checks"]
    metrics, table = {}, {}
    for m in wanted:
        values = samples.get(m["name"])
        if not values:
            print(f"benchmark failed: no samples for {m['name']}", file=sys.stderr)
            return 1
        q1, med, q3 = quartiles(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        table[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": m["unit"]}
    correct = (checks["failed"] == 0 and result.get("trace_ok", True)
               and all(math.isfinite(v["value"]) for v in metrics.values()))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  repetitions {result['reps']}")
    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}  unit")
    for name, row in table.items():
        print(f"{name:40s} {row['median']:14.6g} {row['q1']:14.6g} {row['q3']:14.6g} {row['n']:3d}  {row['unit']}")
    for problem in checks["problems"] + result["details"].get("trace_problems", []):
        print(f"FAILED: {problem}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": result["reps"],
        "fingerprint": dict(fingerprint(root), numpy=result["details"].pop("numpy", None)),
        "metrics": table,
        "samples": {name: samples[name] for name in table},
        "problems": checks["problems"],
        **result["details"],
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": bool(correct), "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
