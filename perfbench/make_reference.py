"""Write the reference measures the ``solve`` workload is checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py

For each pinned model size, the quotient state space and its generator come
from rwspn, but the transient distributions are computed by a different
method than the solver under test: Krylov ``scipy.sparse.linalg.
expm_multiply`` (Al-Mohy and Higham, 2011) in place of uniformization.
Takes about half a minute.
"""

import json
import sys
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import expm_multiply

from rwspn import build_generator, build_npl_sys, explore, production_rules

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import EPS, GRID, REFERENCE, WORKLOADS  # noqa: E402


def reference(n: int) -> dict:
    ts = explore(build_npl_sys(n, 2, 2), production_rules(), mode="quotient")
    gen = build_generator(ts)
    rates = np.zeros(len(ts))
    for src, _dst, label, rate in ts.edges:
        if label == "as":
            rates[src] += rate
    finals = list(ts.final_states())
    start, stop, points = GRID.split(":")
    grid = np.logspace(np.log10(float(start)), np.log10(float(stop)), int(points))
    qt = gen.matrix.T.tocsc()
    pi = np.zeros(len(ts))
    pi[0] = 1.0
    prev = 0.0
    rows = []
    for t in grid:
        pi = expm_multiply(qt * (t - prev), pi)
        prev = t
        rows.append([float(t), float(pi @ rates), float(1.0 - pi[finals].sum())])
    return {"n": n, "grid": GRID, "eps": EPS, "max_as_rate": float(rates.max()), "rows": rows}


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    for n in sorted(WORKLOADS["solve"]["pins"]):
        path = REFERENCE / f"solve_n{n}.json"
        path.write_text(json.dumps(reference(n), indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
