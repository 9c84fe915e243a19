"""Worker process of the benchmark: one measurement per process.

    python3 bench/child.py setup  <workload>
    python3 bench/child.py run    <workload>
    python3 bench/child.py traced <workload> <out-dir>
    python3 bench/child.py probe  <seed>

Prints one JSON object as its last line.  Only the standard library is
imported before timing starts, so ``setup`` measures the import of
``elongate`` (and numpy) as a user pays it.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, write_config  # noqa: E402


def sweep_config(cfg: dict):
    """The library workload's ``SweepConfig``, built through public constructors."""
    from elongate import CrossSection, Load, SolveOptions, SweepConfig, make_density

    dom = cfg["domain"]
    cs = CrossSection(dom["cross_section"], dom["r"])
    n = cs.r + len(dom["vertical_halfwidths"])
    return SweepConfig(
        cross_section=cs,
        vertical_halfwidths=tuple(dom["vertical_halfwidths"]),
        ells=tuple(dom["ell_list"]),
        target_h=cfg["grid"]["target_h"],
        density=make_density(cfg["density"]["kind"], cfg["density"].get("p"), cs.r, n),
        load=Load.constant(cfg["load"]["value"]),
        options=SolveOptions(grad_tol=cfg["solver"]["grad_tol"]),
        warm_start=cfg["solver"]["warm_start"],
    )


def setup(name: str) -> dict:
    t0 = time.perf_counter()
    import elongate
    from elongate import CrossSection, DomainSpec, build_grid, build_vertical_grid

    wl = WORKLOADS[name]
    if wl["kind"] == "cli":
        from elongate.cli import resolve_config

        rc = resolve_config(wl["config"])
        dom, h = rc["domain"], rc["grid"]["target_h"]
        cs = CrossSection(dom["cross_section"], int(dom["r"]))
        halfwidths, ells = tuple(dom["vertical_halfwidths"]), dom["ell_list"]
    else:
        sc = sweep_config(wl["config"])
        cs, halfwidths, ells, h = sc.cross_section, sc.vertical_halfwidths, sc.ells, sc.target_h
    build_vertical_grid(halfwidths, h)
    for ell in ells:
        build_grid(DomainSpec(cs, ell, halfwidths), h)
    setup_s = time.perf_counter() - t0

    import numpy

    return {
        "setup_s": setup_s,
        "elongate_file": elongate.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def run(name: str) -> dict:
    from elongate import study

    cfg = sweep_config(WORKLOADS[name]["config"])
    t0 = time.perf_counter()
    result = study.run_sweep(cfg)  # looked up at call time, so a traced run sees its wrapper
    return {
        "wall_s": time.perf_counter() - t0,
        "records": [rec.to_json() for rec in result.records],
        "limit_iters": result.limit_report.iterations,
        "limit_converged": result.limit_report.converged,
    }


def traced(name: str, out_dir: str) -> dict:
    from spans import Tracer, layer_metrics, summarize

    import elongate.cli

    tracer = Tracer()
    tracer.install()
    if WORKLOADS[name]["kind"] == "cli":
        cfg_path = write_config(name, out_dir)
        t0 = time.perf_counter()
        code = elongate.cli.main(["sweep", "--config", cfg_path, "--out", out_dir])
        payload = {"wall_s": time.perf_counter() - t0, "exit_code": code}
    else:
        payload = run(name)
    summary = summarize(tracer)
    payload.update(layers=layer_metrics(summary), thread_self_s=summary["thread_self_s"],
                   absent=summary["absent"])
    return payload


#: Rounds per probe; every kernel runs once per round, interleaved.
PROBE_ROUNDS = 7


def probe(seed: int) -> dict:
    """Per-call cost of each kernel on fixed grids (``ell = 12``), median of rounds."""
    import numpy as np

    from elongate import (
        CrossSection,
        DomainSpec,
        Load,
        ScalarField,
        SolveOptions,
        assemble_energy_gradient,
        build_grid,
        build_vertical_grid,
        cell_gradients,
        extend_vertical,
        make_density,
        minimize,
    )

    rng = np.random.default_rng(seed)
    load = Load.constant(2.0)
    quad = make_density("quadratic", r=1, n=2)
    p4 = make_density("p-dirichlet", 4.0, r=1, n=2)
    one_iter = SolveOptions(max_iters=1)
    out = {}
    for label, h in (("h16", 1 / 16), ("h64", 1 / 64)):
        grid = build_grid(DomainSpec(CrossSection("box", 1), 12.0, (1.0,)), h)
        mesh = grid.node_meshgrid()

        def smooth():
            # a few random low sine modes: smooth like a solution, set by the seed
            vals = np.zeros(grid.shape)
            for _ in range(3):
                term = rng.uniform(-0.5, 0.5)
                for a in range(grid.n):
                    extent = grid.h[a] * (grid.shape[a] - 1)
                    term = term * np.sin(rng.integers(1, 5) * np.pi * (mesh[a] - grid.lo[a]) / extent)
                vals = vals + term
            return ScalarField(grid, vals)

        u, d = smooth(), smooth()
        Gu, Gd = cell_gradients(u), cell_gradients(d)
        vgrid = build_vertical_grid((1.0,), h)
        u_ext = extend_vertical(ScalarField(vgrid, 1.0 - vgrid.axis_nodes(0) ** 2), grid)
        kernels = {
            "field.cell_gradients_ms": lambda: cell_gradients(u),
            "field.assemble_gradient_ms.quad": lambda: assemble_energy_gradient(u, quad, load),
            "field.assemble_gradient_ms.p4": lambda: assemble_energy_gradient(u, p4, load),
            "density.value_increment_ms": lambda: p4.value_increment(Gu, 0.5 * Gd),
            "density.grad_ms": lambda: p4.grad(Gu),
            "solver.one_iter_ms.quad": lambda: minimize(grid, quad, load, one_iter, warm_start=u),
            "solver.one_iter_ms.p4": lambda: minimize(grid, p4, load, one_iter, warm_start=u),
            "study.core_measure_ms": lambda: _core_measure(grid, u, u_ext),
        }
        times = {key: [] for key in kernels}
        for _ in range(PROBE_ROUNDS):
            for key, fn in kernels.items():
                t0 = time.perf_counter()
                fn()
                times[key].append(1e3 * (time.perf_counter() - t0))
        for key, ts in times.items():
            ts.sort()
            out[f"{key}.{label}"] = ts[len(ts) // 2]
    return {"probes": out, "numpy": np.__version__}


def _core_measure(grid, u, u_ext):
    """The public calls a sweep makes to measure one record on the core region."""
    from elongate import cell_gradients, cell_means, lp_norm_p, region_cells

    gu = cell_gradients(u)
    gdiff = gu - cell_gradients(u_ext)
    core = region_cells(grid, "core", 1.0)
    err = lp_norm_p(grid, gdiff, 2.0, core)
    err += lp_norm_p(grid, cell_means(u) - cell_means(u_ext), 2.0, core)
    return err + lp_norm_p(grid, gu, 2.0) + lp_norm_p(grid, gu[..., : grid.r], 2.0, core)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        payload = setup(argv[1])
    elif mode == "run":
        payload = run(argv[1])
    elif mode == "traced":
        payload = traced(argv[1], argv[2])
    elif mode == "probe":
        payload = probe(int(argv[1]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
