"""Acceptance suite: one pass/fail line per criterion, tolerances pinned."""

import filecmp
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rwspn
from rwspn import (
    Generator,
    absorbing_predicate,
    apply_assignment,
    brute_force_normal,
    build_generator,
    build_npl_sys,
    check_strong_lumpability,
    default_grid,
    explore,
    lump_generator,
    match_tag,
    measure_series,
    normalize,
    npl_net,
    production_rules,
    quotient_partition,
    random_admissible_assignment,
    to_augmented,
    transient,
)

import ftps_reference
from conftest import ordinary_ts, quotient_ts, random_marking

QUOTIENT_TABLE = {1: (42, 2), 2: (295, 2), 3: (1059, 2), 4: (2764, 2), 5: (5970, 2)}
# The source table gives 779 ordinary states for N=2.  Under the semantics of
# the README and rwspn.ftps the count is 773, whichever order r1 normalizes
# under, and the rwspn-free enumerator in ftps_reference.py gives 773 too
# while reproducing every other count of the table; 779 is taken as an
# erratum of the source.
ORDINARY_TABLE = {1: (60, 2), 2: (773, 4), 3: (6101, 6), 4: (37934, 8)}
RUNTIME_TARGET = {"quotient": 60.0, "ordinary": 600.0}

_elapsed: dict = {}


def _timed(mode, n):
    t0 = time.perf_counter()
    ts = quotient_ts(n) if mode == "quotient" else ordinary_ts(n)
    # keep the first (uncached) duration
    _elapsed.setdefault((mode, n), time.perf_counter() - t0)
    return ts


@pytest.mark.parametrize("n,expected", sorted(QUOTIENT_TABLE.items()))
def test_criterion_1_quotient_counts(n, expected):
    ts = _timed("quotient", n)
    got = (len(ts), len(ts.final_states()))
    assert got == expected
    assert ftps_reference.counts(n, quotient=True) == expected
    print(f"criterion 1 (quotient N={n}): PASS states/final={got} "
          f"[{_elapsed[('quotient', n)]:.1f}s]")


@pytest.mark.parametrize("n,expected", sorted(ORDINARY_TABLE.items()))
def test_criterion_1_ordinary_counts(n, expected):
    ts = _timed("ordinary", n)
    got = (len(ts), len(ts.final_states()))
    assert got == expected
    assert ftps_reference.counts(n) == expected
    print(f"criterion 1 (ordinary N={n}): PASS states/final={got} "
          f"[{_elapsed[('ordinary', n)]:.1f}s]")


@pytest.mark.parametrize("mode,n", [("quotient", 4), ("ordinary", 4)])
def test_criterion_1_runtime_targets(mode, n):
    _timed(mode, n)
    elapsed = _elapsed[(mode, n)]
    assert elapsed < RUNTIME_TARGET[mode]
    print(f"criterion 1 (runtime {mode} N={n}): PASS {elapsed:.1f}s "
          f"< {RUNTIME_TARGET[mode]:.0f}s")


def test_criterion_2_initial_aggregation():
    s = normalize(build_npl_sys(2, 2, 2))
    targets = to_augmented(s, production_rules()).firing_targets
    by_tag = {}
    for per_tag in targets.items():
        for tag, rate in per_tag[1].items():
            assert tag not in by_tag, "each tag aggregates onto one target"
            by_tag[tag] = rate
    assert by_tag["ld"] == 0.5 + 0.5
    assert by_tag["ft"] == 0.001 + 0.001 + 0.001 + 0.001
    assert set(by_tag) == {"ld", "ft"}
    print("criterion 2 (initial-state aggregation): PASS ld=1.0 ft=0.004")


@pytest.mark.parametrize("n", range(1, 7))
def test_criterion_3_absorbing_search(n):
    ts = quotient_ts(n)
    finals = ts.final_states()
    matched = ts.search_final(absorbing_predicate(2))
    assert len(finals) == 2
    assert matched == finals
    for i in finals:
        m = ts.states[i].marking
        assert match_tag(m, "w").size + match_tag(m, "a").size == 2 * 2
    print(f"criterion 3 (absorbing search N={n}): PASS 2 final classes, |w|+|a|=4")


@pytest.mark.parametrize("n", [1, 2])
def test_criterion_4_lumping(n):
    ordinary, quotient = ordinary_ts(n), quotient_ts(n)
    partition = quotient_partition(ordinary, quotient)
    gen = build_generator(ordinary)
    ok, detail = check_strong_lumpability(gen, partition, tol=1e-9)
    assert ok, detail
    lumped = lump_generator(gen, partition, tol=1e-9)
    direct = build_generator(quotient)
    assert lumped.n == direct.n
    a = {(i, j): r for i, j, r in lumped.entries()}
    b = {(i, j): r for i, j, r in direct.entries()}
    delta = max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in a.keys() | b.keys()), default=0.0)
    assert delta <= 1e-9
    print(f"criterion 4 (lumping N={n}): PASS max |delta| = {delta:.2e}")


def test_criterion_5_normalizer_oracle():
    # every reachable state, raw and normalized, agrees with the oracle
    for mode in ("quotient", "ordinary"):
        ts = explore(build_npl_sys(2, 2, 1), production_rules(), mode=mode)
        for s in ts.states:
            assert normalize(s).canonical() == brute_force_normal(s).canonical()
    # random markings of the two-replica net
    rng = random.Random(20240817)
    net = npl_net(2, 2)
    from rwspn import System

    for _ in range(1000):
        s = System(net, random_marking(net, rng))
        assert normalize(s).canonical() == brute_force_normal(s).canonical()
    # invariance under admissible permutations, 100 per sampled state
    sampled = explore(build_npl_sys(2, 2, 1), production_rules(), mode="quotient").states
    for s in sampled:
        base = normalize(s)
        for _ in range(100):
            phi = random_admissible_assignment(s, rng)
            assert normalize(apply_assignment(s, phi)) == base
    print(f"criterion 5 (normalizer oracle): PASS "
          f"{len(sampled)} reachable states, 1000 random markings, 100 perms/state")


def test_criterion_6_transient_oracle():
    lam, eps = 0.1, 1e-10
    gen = Generator(2, {(0, 1): lam})
    pi0 = np.array([1.0, 0.0])
    for t in (1.0, 10.0, 100.0):
        pi = transient(gen, pi0, t, eps=eps)
        assert abs(pi[1] - (1.0 - math.exp(-lam * t))) <= eps
    pi, worst = pi0, 0.0
    prev = 0.0
    for t in default_grid(20, 1.0, 1e3):
        details = {}
        pi = transient(gen, pi, t - prev, eps=eps, details=details)
        prev = t
        worst = max(worst, abs(details["raw_mass"] - 1.0))
    assert worst <= eps
    print(f"criterion 6 (transient oracle): PASS closed form within {eps}, "
          f"worst mass defect {worst:.2e}")


_series_cache: dict = {}
SERIES_EPS = 1e-9
# the fault-reconfiguration window named in the README
RECONFIGURATION_WINDOW = (200.0, 1000.0)


def _series(n, stop=1e4):
    if (n, stop) not in _series_cache:
        ts = quotient_ts(n)
        gen = build_generator(ts)
        grid = default_grid(60, 1.0, stop)
        _series_cache[(n, stop)] = measure_series(ts, gen, grid, eps=SERIES_EPS, tag="as")
    return _series_cache[(n, stop)]


def _as_rates(ts):
    """Total rate of the ``as`` edges leaving each state."""
    rates = np.zeros(len(ts))
    for src, _dst, label, rate in ts.edges:
        if label == "as":
            rates[src] += rate
    return rates


def test_criterion_7_reliability_monotone():
    for n in (1, 2):
        rel = _series(n).reliability
        assert all(b <= a + 1e-12 for a, b in zip(rel, rel[1:]))
    print("criterion 7 (R nonincreasing): PASS")


def test_criterion_7_pointwise_dominance():
    s1, s2 = _series(1), _series(2)
    assert all(r2 >= r1 - 1e-12 for r1, r2 in zip(s1.reliability, s2.reliability))
    # Throughput dominance does not hold pointwise in this model: the shared
    # stock drains into a faulted line, which keeps loading, is rebuilt only
    # once dead and then runs ten times slower, and two lines fault twice as
    # early.  So X2 >= X1 is asserted outside the reconfiguration window, and
    # the dips inside it must be those of the rwspn-free reference CTMC.
    grid = s1.times
    ref = ftps_reference.measures((1, 2), tuple(grid))
    for n, series, (ref_x, ref_r) in zip((1, 2), (s1, s2), ref):
        # uniformization leaves < eps of Poisson mass per grid step and the
        # renormalization at most as much again; the exact propagator does
        # not grow L1 errors, so they add up over the grid
        l1_bound = 2 * len(grid) * SERIES_EPS
        worst_r = max(abs(r - y) for r, y in zip(series.reliability, ref_r))
        assert worst_r <= l1_bound, (n, worst_r, l1_bound)
        tol = l1_bound * max(_as_rates(quotient_ts(n)))
        worst = max(abs(x - y) for x, y in zip(series.throughput, ref_x))
        assert worst <= tol, (n, worst, tol)
    lo, hi = RECONFIGURATION_WINDOW
    for t, x1, x2 in zip(grid, s1.throughput, s2.throughput):
        if not lo <= t <= hi:
            assert x2 >= x1 - 1e-12, t
    dips = [t for t, x1, x2 in zip(grid, s1.throughput, s2.throughput) if x2 < x1 - 1e-12]
    ref_dips = [t for t, x1, x2 in zip(grid, ref[0][0], ref[1][0]) if x2 < x1 - 1e-12]
    assert dips == ref_dips
    worst_ratio = min(x2 / x1 for x1, x2 in zip(s1.throughput, s2.throughput))
    print(f"criterion 7 (two replicas dominate one): PASS R2 >= R1; X2 >= X1 outside "
          f"[{lo:g}, {hi:g}]; {len(dips)} dips as in the reference, worst X2/X1 {worst_ratio:.3f}")


def test_criterion_7_conditional_asymptote():
    # the settling horizon is open (grid unpinned); one extra decade past the
    # default suffices for the conditional to flatten
    s2 = _series(2, stop=1e5)
    tail = [c for t, c in zip(s2.times, s2.conditional) if t >= s2.times[-1] / 10 and c is not None]
    assert tail, "conditional throughput defined over the last decade"
    assert max(tail) / min(tail) - 1.0 < 0.01, "settled to a constant"
    asymptote = tail[-1]
    assert abs(asymptote - 4.94e-3) <= 0.1 * 4.94e-3
    print(f"criterion 7 (conditional asymptote): PASS {asymptote:.4e}")


def test_criterion_7_asymptote_cross_check():
    # independent oracle: slowest-decay conditional distribution of the
    # transient part, from the dominant eigenpair of the sub-generator
    ts = quotient_ts(2)
    gen = build_generator(ts)
    finals = set(ts.final_states())
    alive = [i for i in range(len(ts)) if i not in finals]
    sub = gen.matrix.toarray()[np.ix_(alive, alive)]
    vals, vecs = np.linalg.eig(sub.T)
    k = int(np.argmax(vals.real))
    qs = np.abs(vecs[:, k].real)
    qs /= qs.sum()
    oracle = float(qs @ _as_rates(ts)[alive])
    tail = [c for c in _series(2, stop=1e5).conditional if c is not None][-1]
    assert abs(tail - oracle) <= 0.02 * oracle
    print(f"criterion 7 (cross-check): PASS eigen-oracle {oracle:.4e} vs tail {tail:.4e}")


def test_criterion_8_determinism(tmp_path):
    # places, transitions and nets hash by identity and strings by a per-process
    # seed, so two processes see different set orders; exports must not
    src = str(Path(rwspn.__file__).parent.parent)
    for mode in ("quotient", "ordinary"):
        outs = []
        for seed in ("0", "1"):
            out = tmp_path / f"{mode}-{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            subprocess.run(
                [sys.executable, "-m", "rwspn.cli", "explore", "--n", "2", "--mode", mode,
                 "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=600,
            )
            outs.append(out)
        for name in ("states.txt", "edges.txt", "generator.coo"):
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), (mode, name)
    print("criterion 8 (determinism): PASS byte-identical exports under hash seeds 0 and 1")
