"""Command-line frontend: model construction, exploration, CTMC solution,
verification, and exports."""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from .canon import brute_force_normal, normalize
from .ctmc import (
    Generator,
    _check_eps,
    build_generator,
    check_strong_lumpability,
    lump_generator,
    measure_series,
)
from .ftps import build_npl_sys, production_rules
from .statespace import BudgetExceededError, explore, quotient_partition


def _parse_grid(spec: str) -> list[float]:
    """argparse type of ``--grid``: START:STOP:POINTS, log-spaced."""
    try:
        start, stop, points = spec.split(":")
        start, stop, points = float(start), float(stop), int(points)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {spec!r}, expected START:STOP:POINTS")
    if not (0 < start < stop and points >= 2):
        raise argparse.ArgumentTypeError(f"bad grid spec {spec!r}")
    return list(np.logspace(np.log10(start), np.log10(stop), points))


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
    if args.verify_symmetry and args.mode == "quotient":
        for s in ts.states:
            if brute_force_normal(s) != s:
                print(f"error: non-minimal normal form: {s.canonical()}", file=sys.stderr)
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
    # double the first edge leaving a state whose class has other members
    from collections import Counter

    sizes = Counter(partition)
    entries = {(i, j): r for i, j, r in gen.entries()}
    for (i, j), rate in sorted(entries.items()):
        if sizes[partition[i]] > 1:
            entries[(i, j)] = 2.0 * rate
            break
    return Generator(gen.n, entries)


def cmd_verify(args) -> int:
    rules = _rules_for(args)
    system = build_npl_sys(args.n, args.k, args.m)
    quotient = explore(system, rules, mode="quotient")
    ordinary = explore(system, rules, mode="ordinary")
    failures = 0

    bad = [s for s in quotient.states if brute_force_normal(s) != s or normalize(s) != s]
    print(f"normalize-oracle: {'FAIL' if bad else 'PASS'} ({len(quotient)} states)")
    if bad:
        failures += 1
        print(f"  counterexample: {bad[0].canonical()}", file=sys.stderr)

    partition = quotient_partition(ordinary, quotient)
    gen = build_generator(ordinary)
    if args.perturb:
        gen = _perturbed(gen, partition)
    ok, detail = check_strong_lumpability(gen, partition, tol=1e-9)
    print(f"strong-lumpability: {'PASS' if ok else 'FAIL'} ({len(ordinary)} states)")
    if not ok:
        failures += 1
        print(f"  counterexample: {detail}", file=sys.stderr)

    if ok:
        lumped = lump_generator(gen, partition, tol=1e-9)
        qgen = build_generator(quotient)
        same = lumped.n == qgen.n
        delta = abs(lumped.offdiag - qgen.offdiag).max() if same else math.inf
        good = same and delta <= 1e-9
        print(f"lumped-vs-quotient: {'PASS' if good else 'FAIL'} (max |delta| = {delta:.3e})")
        if not good:
            failures += 1
    else:
        print("lumped-vs-quotient: SKIP")

    return 1 if failures else 0


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
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
