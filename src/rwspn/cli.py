"""Command-line frontend: model construction, exploration, CTMC solution,
verification, and exports."""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from .canon import CanonBoundError, brute_force_states, normalize_states
from .ctmc import (
    Generator,
    LumpabilityError,
    TransientBudgetError,
    _check_eps,
    _sum_runs,
    build_generator,
    default_grid,
    lump_generator,
    measure_series,
)
from .ftps import build_npl_sys, production_rules
from .statespace import BudgetExceededError, explore, quotient_partition


def _parse_grid(spec: str) -> list[float]:
    """argparse type of ``--grid``: START:STOP:POINTS, log-spaced by
    ``default_grid``; the grid must be finite and strictly increasing."""
    try:
        start, stop, points = spec.split(":")
        start, stop, points = float(start), float(stop), int(points)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {spec!r}, expected START:STOP:POINTS")
    if not (0 < start < stop and points >= 2):
        raise argparse.ArgumentTypeError(f"bad grid spec {spec!r}")
    with np.errstate(all="ignore"):  # an infinite or overflowing end is refused below
        grid = default_grid(points, start, stop)
    if not (np.isfinite(grid).all() and (np.diff(grid) > 0).all()):
        raise argparse.ArgumentTypeError(
            f"bad grid spec {spec!r}: the grid is not finite and strictly increasing"
        )
    return grid


def _at_least(least: int):
    """argparse type of an int that is at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_at_least(1), required=True, help="number of production lines")
    p.add_argument("--k", type=_at_least(1), default=2, help="branches per line (rules need 2)")
    p.add_argument("--m", type=_at_least(0), default=2, help="items per branch")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def _rules_for(args):
    if args.k != 2:
        print("note: reconfiguration rules need k=2; exploring firing only", file=sys.stderr)
        return ()
    return production_rules()


def cmd_explore(args) -> int:
    system = build_npl_sys(args.n, args.k, args.m)
    started = time.perf_counter()
    try:
        ts = explore(system, _rules_for(args), mode=args.mode, max_states=args.budget)
    except BudgetExceededError as exc:
        print(f"states>{exc.budget} final=? elapsed={time.perf_counter() - started:.2f}")
        raise
    elapsed = time.perf_counter() - started
    if args.verify_symmetry:
        checks = zip(ts._cells, brute_force_states(ts._cells))
        bad = [i for i, (cell, bf) in enumerate(checks) if bf != cell]
        if bad:
            state = ts.states[bad[0]]
            print(f"error: non-minimal normal form: {state.canonical()}", file=sys.stderr)
            return 1
    args.out.mkdir(parents=True, exist_ok=True)
    ts.write_states(args.out / "states.txt")
    ts.write_edges(args.out / "edges.txt")
    build_generator(ts).write_coo(args.out / "generator.coo")
    print(f"states={len(ts)} final={len(ts.final_states())} elapsed={elapsed:.2f}")
    return 0


def cmd_solve(args) -> int:
    try:
        _check_eps(args.eps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = build_npl_sys(args.n, args.k, args.m)
    ts = explore(system, _rules_for(args), mode="quotient", max_states=args.budget)
    gen = build_generator(ts)
    series = measure_series(ts, gen, args.grid, eps=args.eps)
    args.out.mkdir(parents=True, exist_ok=True)
    gen.write_coo(args.out / "generator.coo")
    series.write_csv(args.out / "measures.csv")
    print(f"states={len(ts)} grid={len(series.times)} mass_defect={series.max_mass_defect:.1e}"
          f" wrote {args.out / 'measures.csv'}")
    return 0


def _perturbed(gen: Generator, partition) -> Generator:
    # double the first entry, in (row, column) order, of a state whose
    # class has other members
    rows = gen._rows()
    _labels, cls, sizes = np.unique(partition, return_inverse=True, return_counts=True)
    shared = np.flatnonzero(sizes[cls][rows] > 1)
    data = gen.data.copy()
    if len(shared):
        data[shared[0]] *= 2.0
    return Generator._from_arrays(gen.n, rows, gen.indices, data)


def cmd_verify(args) -> int:
    rules = _rules_for(args)
    system = build_npl_sys(args.n, args.k, args.m)
    quotient = explore(system, rules, mode="quotient")
    ordinary = explore(system, rules, mode="ordinary")

    cells = quotient._cells
    checks = zip(cells, normalize_states(cells), brute_force_states(cells))
    bad = [i for i, (cell, nf, bf) in enumerate(checks) if bf != cell or nf != cell]
    print(f"normalize-oracle: {'FAIL' if bad else 'PASS'} ({len(quotient)} states)")
    if bad:
        print(f"  counterexample: {quotient.states[bad[0]].canonical()}", file=sys.stderr)

    partition = quotient_partition(ordinary, quotient)
    gen = build_generator(ordinary)
    if args.perturb:
        gen = _perturbed(gen, partition)
    try:  # lumping checks strong lumpability on the flows it lumps
        lumped = lump_generator(gen, partition, tol=1e-9)
    except LumpabilityError as exc:
        print(f"strong-lumpability: FAIL ({len(ordinary)} states)")
        print(f"  counterexample: {exc.detail}", file=sys.stderr)
        print("lumped-vs-quotient: SKIP")
        return 1
    print(f"strong-lumpability: PASS ({len(ordinary)} states)")

    qgen = build_generator(quotient)
    same = lumped.n == qgen.n
    # over the off-diagonal entries; an entry of only one counts at its full rate
    keys = np.concatenate([gen._rows() * gen.n + gen.indices for gen in (lumped, qgen)])
    delta = _sum_runs(keys, np.concatenate((lumped.data, -qgen.data)))[1]
    delta = float(np.abs(delta).max(initial=0.0)) if same else math.inf
    good = same and delta <= 1e-9
    print(f"lumped-vs-quotient: {'PASS' if good else 'FAIL'} (max |delta| = {delta:.3e})")
    return 0 if good and not bad else 1


def cmd_export_net(args) -> int:
    system = build_npl_sys(args.n, args.k, args.m)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "net.txt"
    path.write_text(system.pretty() + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rwspn",
        description="Rewritable stochastic Petri nets: quotient state spaces and lumped CTMC analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="build the transition system and export it")
    _model_args(p)
    p.add_argument("--mode", choices=("quotient", "ordinary"), default="quotient")
    p.add_argument("--budget", type=_at_least(1), default=None, help="state budget")
    p.add_argument("--verify-symmetry", action="store_true",
                   help="cross-check every state against the brute-force normalizer")
    p.set_defaults(func=cmd_explore)
    explore_parser = p

    p = sub.add_parser("solve", help="explore, build the generator, solve the measures")
    _model_args(p)
    p.add_argument("--eps", type=float, default=1e-9, help="transient solver accuracy")
    p.add_argument("--grid", type=_parse_grid, default="1:10000:60",
                   help="log-spaced grid START:STOP:POINTS")
    p.add_argument("--budget", type=_at_least(1), default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="normalizer oracle and lumping checks")
    _model_args(p)
    p.add_argument("--perturb", action="store_true",
                   help="flip one rate; lumpability must then fail")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-net", help="write the initial system in readable form")
    _model_args(p)
    p.set_defaults(func=cmd_export_net)

    args = parser.parse_args(argv)
    if args.command == "explore" and args.verify_symmetry and args.mode != "quotient":
        explore_parser.error("argument --verify-symmetry: needs --mode quotient")
    try:
        return args.func(args)
    except (BudgetExceededError, CanonBoundError, TransientBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
