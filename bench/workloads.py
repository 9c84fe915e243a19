"""The benchmark's workloads, as plain data in the CLI's JSON config format.

Every workload is deterministic; the benchmark seed only drives the
kernel probes' random fields.  Library workloads call ``run_sweep``
in a worker process; the CLI workload runs ``elongate sweep`` as its own
process, so its wall time includes interpreter start-up and artifact I/O.
"""

from __future__ import annotations

import json
import os

WORKLOADS = {
    # Linear-CG path: 3,391 iterations, almost all of it minimize self time,
    # no line-search trials.  Exact oracle: the fitted decay rate is pi/2.
    "quad-fine": {
        "kind": "library",
        "config": {
            "domain": {"r": 1, "cross_section": "box", "ell_list": list(range(2, 13)),
                       "vertical_halfwidths": [1.0]},
            "grid": {"target_h": 1 / 32},
            "density": {"kind": "quadratic", "p": 2.0},
            "load": {"kind": "constant", "value": 2.0},
            "solver": {"grad_tol": 1e-10, "warm_start": True},
        },
    },
    # Nonlinear PR-CG with Armijo trials; the acceptance A4 sweep with its
    # ell list thinned to 2..4 (same spacing, density and warm-start chain),
    # so that a run takes its median over about ten repetitions.
    "p4-sweep": {
        "kind": "library",
        "config": {
            "domain": {"r": 1, "cross_section": "box", "ell_list": [2, 3, 4],
                       "vertical_halfwidths": [1.0]},
            "grid": {"target_h": 1 / 16},
            "density": {"kind": "p-dirichlet", "p": 4.0},
            "load": {"kind": "constant", "value": 2.0},
            "solver": {"grad_tol": None, "warm_start": True},
        },
    },
    # The CLI end to end: 3-D ball grids with masked cells, the threaded cold
    # sweep, config parsing, fits, verdicts and atomic writes.  Exits 3 by
    # design (coarse scaling and horizontal-gradient verdicts fail).
    "cli-ball": {
        "kind": "cli",
        "threads": 2,
        "config": {
            "domain": {"r": 2, "cross_section": "ball", "ell_list": [2, 3, 4],
                       "vertical_halfwidths": [1.0]},
            "grid": {"target_h": 1 / 8},
            "density": {"kind": "quadratic"},
            "solver": {"warm_start": False},
        },
    },
}


def write_config(name: str, directory: str) -> str:
    """Writes the workload's config as the CLI reads it; returns its path."""
    path = os.path.join(directory, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(WORKLOADS[name]["config"], fh)
    return path
