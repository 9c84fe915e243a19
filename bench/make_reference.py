"""Regenerate ``reference.json``: the outputs the correctness gate compares with.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are trusted; the stored file was
made at the seed commit.  Each workload runs once, exactly as the
benchmark runs it.  The fit floor is the CLI's default,
``100 * grad_tol * sup|load| * cell volume``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from child import sweep_config  # noqa: E402
from run import Runner, fingerprint, run_rep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from elongate import DomainSpec, build_grid, default_grad_tol  # noqa: E402
from elongate.cli import resolve_config  # noqa: E402

KEYS = ("ell", "J_ell", "total_grad_energy", "err_grad_p", "hgrad_p")


def fit_floor(name: str) -> tuple[float, float]:
    cfg = WORKLOADS[name]["config"]
    sc = sweep_config(resolve_config(cfg) if WORKLOADS[name]["kind"] == "cli" else cfg)
    grid = build_grid(DomainSpec(sc.cross_section, sc.ells[0], sc.vertical_halfwidths), sc.target_h)
    tol = sc.options.grad_tol or default_grad_tol(sc.density)
    return sc.density.p, 100.0 * tol * abs(sc.load.value) * grid.cell_volume


def main() -> int:
    work = os.path.join(ROOT, ".bench_run", "reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(ROOT, work)
    out = {"commit": fingerprint(ROOT)["commit"], "workloads": {}}
    try:
        for name in WORKLOADS:
            rep = run_rep(runner, name, os.path.join(work, name))
            p, floor = fit_floor(name)
            entry = {"p": p, "floor": floor,
                     "records": [{k: r[k] for k in KEYS} for r in rep["records"]]}
            if WORKLOADS[name]["kind"] == "cli":
                entry.update(exit_code=rep["exit_code"], verdicts=rep["verdicts"],
                             csv_header=rep["csv_header"])
            out["workloads"][name] = entry
            print(f"{name}: {len(rep['records'])} records, wall {rep['wall_s']:.1f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
