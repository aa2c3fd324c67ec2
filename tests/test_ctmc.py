import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

import rwspn

from rwspn import (
    Generator,
    LumpabilityError,
    TransientBudgetError,
    build_generator,
    build_npl_sys,
    check_strong_lumpability,
    default_grid,
    explore,
    lump_generator,
    measure_series,
    quotient_partition,
    reliability,
    throughput,
    transient,
)
from rwspn.ctmc import _LEFT_SHARE, _RING, _class_flows, _p_transposed, _poisson_window, _ring

from conftest import chain, ordinary_ts, quotient_ts


def two_state_chain(lam=0.1):
    return Generator(2, {(0, 1): lam})


def test_generator_basics():
    gen = two_state_chain()
    assert gen.diagonal[0] == pytest.approx(-0.1)
    assert gen.diagonal[1] == 0.0
    assert gen.entries() == ((0, 1, 0.1),)
    assert np.allclose(np.asarray(gen.matrix.sum(axis=1)).ravel(), 0.0, atol=1e-12)


def test_generator_rejects_negative_rates():
    with pytest.raises(ValueError):
        Generator(2, {(0, 1): -1.0})


@pytest.mark.parametrize(
    "rates",
    [
        {(0, 1): math.nan},
        {(0, 1): math.inf},
        {(0, 0): 1.0, (0, 1): 1.0},
        {(0, 5): 1.0},
        {(0, -1): 1.0},
        {(5, 0): 1.0},
        {(-1, 0): 1.0},
        {(0.5, 1): 1.0},
        {(0, 1.0): 1.0},
        {(True, False): 1.0},
        {(0, np.bool_(True)): 1.0},
    ],
)
def test_generator_rejects_non_finite_and_diagonal_rates(rates):
    # a diagonal key, or a column outside the states, would be listed by
    # entries() and counted as an exit rate; a float or bool key would be
    # cast to another state
    indices = [i for key in rates for i in key]
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in indices):
        match = "is not an int"
    elif not all(0 <= i < 2 for i in indices):
        match = r"state index outside 0\.\.1"
    else:
        match = None
    with pytest.raises(ValueError, match=match):
        Generator(2, rates)


def test_generator_accepts_numpy_integer_indices():
    gen = Generator(2, {(np.int64(0), np.int32(1)): 0.1})
    assert gen.entries() == two_state_chain().entries()


def test_from_arrays_refuses_a_repeated_entry():
    # a repeated (row, col) would be listed twice by entries() and in
    # generator.coo; it is refused wherever the pair sits in the arrays
    for rows, cols in (([0, 0, 1], [1, 1, 2]), ([0, 1, 0], [1, 2, 1]), ([2, 1, 2], [0, 2, 0])):
        with pytest.raises(ValueError, match=r"entry \(\d, \d\) given twice"):
            Generator._from_arrays(3, np.array(rows), np.array(cols), [1.0, 2.0, 3.0])
    gen = Generator._from_arrays(3, np.array([0, 1, 0]), np.array([1, 0, 2]), [1.0, 2.0, 3.0])
    assert gen.entries() == ((0, 1, 1.0), (0, 2, 3.0), (1, 0, 2.0))


def test_build_generator_sums_parallel_edges_and_skips_self_loops():
    ts = chain((0, 0, "x", 9.0), (0, 1, "a", 0.5), (0, 1, "b", 0.5))
    gen = build_generator(ts)
    assert gen.entries() == ((0, 1, 1.0),)
    assert gen.diagonal[0] == -1.0


def test_build_generator_frees_its_edge_arrays_before_sorting():
    # the edge-length arrays of the merge are freed before the generator
    # sorts its entries: about 6 int64 arrays of the edges' length at the
    # peak, against 9 when they were kept
    ts = explore(build_npl_sys(2, 3, 3), (), mode="ordinary")  # 50,808 edges
    tracemalloc.start()
    try:
        build_generator(ts)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 8 * len(ts.src)


def test_write_coo_builds_no_entry_length_array(tmp_path):
    # each slice numbers its own rates and looks up its own rows: about 1.8
    # int64 arrays of the entries' length at the peak, against 5.3 when the
    # rate numbers and the rows were built for every entry at once
    gen = build_generator(explore(build_npl_sys(2, 3, 3), (), mode="ordinary"))
    tracemalloc.start()
    try:
        start, _peak = tracemalloc.get_traced_memory()
        gen.write_coo(tmp_path / "g.coo")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 3 * 8 * len(gen.data)


def test_write_coo_prints_each_entry_with_its_repr(tmp_path):
    # the reprs are cached per rate; 0.0 and -0.0 are equal but print apart
    gen = Generator(4, {(3, 0): 0.1, (0, 1): 0.0, (1, 2): -0.0, (2, 3): 0.1, (0, 2): 1 / 3})
    gen.write_coo(tmp_path / "g.coo")
    lines = (tmp_path / "g.coo").read_text().splitlines()
    assert lines == ["4", *(f"{i} {j} {rate!r}" for i, j, rate in gen.entries())]
    assert lines[1:3] == ["0 1 0.0", "0 2 0.3333333333333333"]


def test_explore_path_never_builds_q(tmp_path):
    # Q with its diagonal is built on its first read, which only
    # ``transient`` makes; the exports leave it unbuilt
    gen = build_generator(ordinary_ts(2))
    gen.write_coo(tmp_path / "g.coo")
    assert "matrix" not in vars(gen)
    expected = (gen.offdiag + sp.diags(gen.diagonal)).tocsr()
    for name in ("data", "indices", "indptr"):
        got, want = getattr(gen.matrix, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_initial_aggregated_row():
    gen = build_generator(quotient_ts(2))
    row = {(i, j): r for i, j, r in gen.entries() if i == 0}
    assert sorted(row.values()) == [pytest.approx(0.004), pytest.approx(1.0)]


def test_lumpability_singleton_partition():
    gen = build_generator(quotient_ts(1))
    ok, detail = check_strong_lumpability(gen, list(range(gen.n)))
    assert ok and detail is None
    lumped = lump_generator(gen, list(range(gen.n)))
    assert lumped.entries() == gen.entries()


def test_lumpability_negative_case():
    # 3-state chain: lumping the two non-equivalent upstream states fails
    gen = Generator(3, {(0, 1): 1.0, (1, 2): 2.0})
    ok, detail = check_strong_lumpability(gen, [0, 0, 1])
    assert not ok
    assert detail["class"] == 0
    assert detail["states"] == (0, 1)
    with pytest.raises(LumpabilityError):
        lump_generator(gen, [0, 0, 1])
    for tol in (math.nan, math.inf, -1.0):  # a NaN or infinite tol would pass any partition
        for check in (check_strong_lumpability, lump_generator):
            with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
                check(gen, [0, 0, 1], tol=tol)


TOL = 2.0**-10  # rates below are dyadic, so every sum is exact in any order
DELTA = 2.0**-20


def _dense_lumping(gen, part, tol):
    """Q·V with dense arrays, and the first state, scanning in state order,
    whose row differs from its class's first state's row by more than tol."""
    labels = sorted(set(part))
    v = np.zeros((len(part), len(labels)))
    for i, c in enumerate(part):
        v[i, labels.index(c)] = 1.0
    f = gen.offdiag.toarray() @ v
    first = {c: part.index(c) for c in labels}
    for i, c in enumerate(part):
        rep = first[c]
        bad = np.flatnonzero(np.abs(f[i] - f[rep]) > tol)
        if len(bad):
            t = int(bad[0])
            return labels, first, f, {
                "class": c,
                "states": (rep, i),
                "target_class": labels[t],
                "rates": (f[rep, t], f[i, t]),
                "max_deviation": np.abs(f - f[[first[d] for d in part]]).max(),
            }
    return labels, first, f, None


@st.composite
def lumping_cases(draw):
    n = draw(st.integers(0, 8))
    k = draw(st.integers(1, max(n, 1)))
    cls = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    rate = st.integers(1, 16).map(lambda u: u / 4)
    rates: dict = {}
    if n and draw(st.booleans()):
        # lumpable by construction: each state sends its class's rate into
        # every class d, all of it to one member of d other than itself
        lumped = {(c, d): draw(rate) for c in set(cls) for d in set(cls) if draw(st.booleans())}
        for i, c in enumerate(cls):
            for d in set(cls):
                members = [j for j, e in enumerate(cls) if e == d and j != i]
                if (c, d) in lumped and members:
                    j = draw(st.sampled_from(members))
                    rates[(i, j)] = rates.get((i, j), 0.0) + lumped[(c, d)]
    elif n > 1:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for key in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)):
            rates[key] = draw(rate)
    if rates:
        # one rate moved by about tol: a breach only when strictly above it
        key = draw(st.sampled_from(sorted(rates)))
        rates[key] += draw(st.sampled_from([0.0, TOL - DELTA, TOL, TOL + DELTA, 1.0]))
    if draw(st.booleans()):  # arbitrary integer labels, else 0..m-1
        names = draw(st.lists(st.integers(-(2**40), 2**40), min_size=k, max_size=k, unique=True))
        part = [names[c] for c in cls]
    else:
        used = sorted(set(cls))
        part = [used.index(c) for c in cls]
    return Generator(n, rates), part


@given(lumping_cases())
def test_lumpability_matches_dense_reference(case):
    gen, part = case
    labels, first, f, expected = _dense_lumping(gen, part, TOL)
    ok, detail = check_strong_lumpability(gen, part, tol=TOL)
    assert (ok, detail) == (expected is None, expected)
    if detail is not None:
        assert all(type(r) is float for r in (*detail["rates"], detail["max_deviation"]))
        with pytest.raises(LumpabilityError) as err:
            lump_generator(gen, part, tol=TOL)
        assert err.value.detail == expected
    elif labels != list(range(len(labels))):
        with pytest.raises(ValueError):
            lump_generator(gen, part, tol=TOL)
    else:
        lumped = lump_generator(gen, part, tol=TOL)
        assert lumped.n == len(labels)
        assert lumped.entries() == tuple(
            (c, d, f[first[c], d]) for c in labels for d in labels if d != c and f[first[c], d]
        )


def test_normalize_partition_is_lumpable():
    for n in (1, 2):
        ordinary, quotient = ordinary_ts(n), quotient_ts(n)
        gen = build_generator(ordinary)
        part = quotient_partition(ordinary, quotient)
        ok, detail = check_strong_lumpability(gen, part, tol=1e-9)
        assert ok, detail


def test_lumped_equals_quotient_generator():
    for n in (1, 2):
        ordinary, quotient = ordinary_ts(n), quotient_ts(n)
        part = quotient_partition(ordinary, quotient)
        lumped = lump_generator(build_generator(ordinary), part, tol=1e-9)
        direct = build_generator(quotient)
        assert lumped.n == direct.n
        a = dict(((i, j), r) for i, j, r in lumped.entries())
        b = dict(((i, j), r) for i, j, r in direct.entries())
        assert a.keys() == b.keys()
        for key in a:
            assert abs(a[key] - b[key]) <= 1e-9


def test_transient_t0_and_absorbing():
    gen = two_state_chain()
    pi0 = np.array([1.0, 0.0])
    assert np.array_equal(transient(gen, pi0, 0.0), pi0)
    for t in (1.0, 10.0, 100.0):
        pi = transient(gen, pi0, t, eps=1e-10)
        assert abs(pi[1] - (1.0 - math.exp(-0.1 * t))) <= 1e-10


def test_transient_mass_conservation():
    gen = two_state_chain()
    details = {}
    transient(gen, np.array([1.0, 0.0]), 50.0, eps=1e-10, details=details)
    assert abs(details["raw_mass"] - 1.0) <= 1e-10


def test_transient_cycle_converges_to_uniform():
    gen = Generator(3, {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0})
    details = {}
    pi = transient(gen, np.array([1.0, 0.0, 0.0]), 500.0, eps=1e-12, details=details)
    assert np.allclose(pi, 1 / 3, atol=1e-9)
    # no absorbing state, so the absorbed-mass shortcut never applies
    assert details["terms"] > 0


def test_transient_absorbed_mass_shortcut():
    lam, eps = 0.1, 1e-10
    gen = two_state_chain(lam)
    # after t = 300 the mass left on the live state is e^-30 <= eps/2
    pi = transient(gen, np.array([1.0, 0.0]), 300.0, eps=eps)
    assert pi[0] <= eps / 2
    details = {}
    pi = transient(gen, pi, 100.0, eps=eps, details=details)
    assert details["terms"] == 0
    assert abs(pi[1] - (1.0 - math.exp(-lam * 400.0))) <= eps
    # just above eps/2 the series runs
    details = {}
    pi = transient(gen, np.array([eps, 1.0 - eps]), 100.0, eps=eps, details=details)
    assert details["terms"] > 0
    assert abs(pi[0] - eps * math.exp(-lam * 100.0)) <= eps


MU_SWEEP = np.geomspace(0.5, 48_000, 200)


def _l1_from_poisson(weights, mu, left):
    """L1 distance of ``weights`` on ``left, left + 1, ...`` from the
    Poisson(mu) pmf, at 40 digits."""
    with mpmath.workdps(40):
        mu = mpmath.mpf(mu)
        p = mpmath.exp(left * mpmath.log(mu) - mu - mpmath.loggamma(left + 1))
        dist = mpmath.mpf(0)
        for k, w in enumerate(weights, start=left):
            dist += abs(mpmath.mpf(w) - p)
            p = p * mu / (k + 1)
        return float(dist)


@pytest.mark.parametrize("eps", [1e-9, 1e-12])
def test_poisson_window_matches_scipy_stats(eps):
    for mu in MU_SWEEP:
        left, right, weights = _poisson_window(mu, eps)
        # the weights are within eps of the pmf: off by the mass outside
        assert _l1_from_poisson(weights.tolist(), mu, left) < eps, mu
        # left is the largest point with P(K < left) <= share * eps
        left_mass = poisson.cdf(left - 1, mu)
        assert left_mass <= _LEFT_SHARE * eps < poisson.cdf(left, mu), mu
        # right is the smallest point whose right tail fits what is left of eps
        budget = eps - left_mass
        assert poisson.sf(right, mu) < budget <= poisson.sf(right - 1, mu), mu
        # so the window leaves out less than eps of Poisson mass
        assert left_mass + poisson.sf(right, mu) < eps, mu
        # and right is the untruncated series' kmax, or one more
        kmax = int(poisson.ppf(1.0 - eps, mu))
        while poisson.sf(kmax, mu) >= eps:
            kmax += 1
        assert right in (kmax, kmax + 1), mu


def _rwspn_process(code: str) -> str:
    """The stdout of a fresh Python process that runs ``code`` with rwspn
    importable from its source tree."""
    src = str(Path(rwspn.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return proc.stdout


@pytest.mark.parametrize("module", ["scipy", "scipy.sparse", "scipy.stats", "scipy.special"],
                         ids=lambda name: name.split(".")[-1])
def test_rwspn_process_leaves_out_scipy(module, tmp_path):
    # every command, each after the others in one process; the keys are
    # exact, so the CSR kernel's module scipy.sparse._sparsetools may load
    commands = [[name, "--n", "1", "--out", str(tmp_path / name)]
                for name in ("explore", "solve", "verify", "export-net")]
    code = (
        "import sys, rwspn; imported = sys.modules.copy()\n"
        "from rwspn import cli\n"
        f"assert [cli.main(argv) for argv in {commands!r}] == [0, 0, 0, 0]\n"
        f"print({module!r} in imported, {module!r} in sys.modules)"
    )
    assert _rwspn_process(code).splitlines()[-1] == "False False"


def _transient_digest(gen) -> str:
    pi0 = np.zeros(gen.n)
    pi0[0] = 1.0
    return transient(gen, pi0, 300.0 / gen.max_exit_rate, eps=1e-12).tobytes().hex()


def test_csr_kernel_falls_back_to_the_plain_import(tmp_path):
    # the loader finds the kernel's file next to scipy's package; pointed at
    # an empty folder, rwspn imports scipy.sparse and takes its kernel
    code = (
        "import importlib.util, sys\n"
        "find_spec = importlib.util.find_spec\n"
        "def empty(name, *args):\n"
        "    spec = find_spec(name, *args)\n"
        "    if name == 'scipy':\n"
        f"        spec.submodule_search_locations = [{str(tmp_path)!r}]\n"
        "    return spec\n"
        "importlib.util.find_spec = empty\n"
        "import rwspn.ctmc\n"
        "print('scipy.sparse' in sys.modules)\n"
        "from scipy.sparse import _sparsetools\n"
        "print(rwspn.ctmc.csr_matvec is _sparsetools.csr_matvec)\n"
        "from conftest import quotient_ts\n"
        "from test_ctmc import _transient_digest\n"
        "print(_transient_digest(rwspn.build_generator(quotient_ts(2))))\n"
    )
    tests = str(Path(__file__).parent)
    lines = _rwspn_process(f"import sys; sys.path.insert(0, {tests!r})\n" + code).splitlines()
    assert lines[-3:] == ["True", "True", _transient_digest(build_generator(quotient_ts(2)))]
    # loaded from its file, the kernel is the one a later scipy.sparse import uses
    assert rwspn.ctmc.csr_matvec is sp._sparsetools.csr_matvec
    assert sys.modules["scipy.sparse._sparsetools"] is sp._sparsetools


@pytest.mark.parametrize("mu, eps", [(1985768.5058757993, 1e-9), (1492359.7715537474, 1e-6)])
def test_poisson_window_is_exact_at_large_mu(mu, eps):
    # scipy.special's pdtrc is off by about 4e-5 relative this far out in
    # the tail, so a window placed by it has right one term short here
    left, right, _weights = _poisson_window(mu, eps)
    with mpmath.workdps(40):
        m = mpmath.mpf(mu)

        def below(k):  # P(K < k)
            return mpmath.gammainc(k, m, mpmath.inf, regularized=True)

        def beyond(k):  # P(K > k)
            return mpmath.gammainc(k + 1, 0, m, regularized=True)

        left_mass = below(left)
        assert left_mass <= _LEFT_SHARE * eps < below(left + 1)
        budget = eps - left_mass
        assert beyond(right) < budget <= beyond(right - 1)


def test_transient_budget():
    gen = two_state_chain(lam=1000.0)
    with pytest.raises(TransientBudgetError, match="budget is 2000000"):
        transient(gen, np.array([1.0, 0.0]), 1e6, eps=1e-12)


def test_transient_budget_refuses_a_window_past_it():
    # mu is under the budget, but the Fox–Glynn window reaches past it
    gen = Generator(2, {(0, 1): 1.0})
    with pytest.raises(TransientBudgetError,
                       match="^2007487 uniformization terms needed, budget is 2000000$"):
        transient(gen, [1.0, 0.0], 1.999e6 / 1.02)
    details: dict = {}
    transient(gen, [1.0, 0.0], 1.99e6 / 1.02, details=details)
    assert details["terms"] <= 2_000_000


@pytest.mark.parametrize("t", [2e6 / 1.02, 1e12, 1e300])
def test_transient_budget_refuses_huge_mu_before_the_window(t):
    # the Poisson quantiles are NaN past mu of about 1e12; mu = the budget
    # is refused too, since the window reaches about mu
    gen = Generator(2, {(0, 1): 1.0})
    with pytest.raises(TransientBudgetError, match="budget is 2000000"):
        transient(gen, [1.0, 0.0], t)


def test_transient_validates_inputs():
    gen = two_state_chain()
    for t in (-1.0, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            transient(gen, np.array([1.0, 0.0]), t)
    with pytest.raises(ValueError):
        transient(gen, np.array([1.0]), 1.0)
    # [-0.5, 1.5] and [0.0, -1.0] have no mass on the live state 0, so
    # they would take the absorbed-mass shortcut; the rest would uniformize
    for pi0 in ([-0.5, 1.5], [0.0, -1.0], [math.nan, 1.0], [math.inf, 0.0], [2.0, 0.0],
                [0.5, 0.5 + 2e-9]):
        with pytest.raises(ValueError, match="pi0 must have finite, nonnegative entries summing to 1"):
            transient(gen, np.array(pi0), 1.0)
    # a sum within 1e-9 of 1, as measure_series passes on, is accepted
    assert transient(gen, np.array([0.5, 0.5 + 5e-10]), 1.0).sum() == pytest.approx(1.0)


@pytest.mark.parametrize("eps", [0.0, -1e-9, math.nan, math.inf, 1.0, 2.0, 1e-17, 2.0**-54])
def test_transient_rejects_eps_it_cannot_honor(eps):
    gen = two_state_chain()
    for pi0 in ([1.0, 0.0], [0.0, 1.0]):  # the second takes the absorbed-mass shortcut
        with pytest.raises(ValueError, match=r"eps must lie in \(2\*\*-54, 1\)"):
            transient(gen, np.array(pi0), 1.0, eps=eps)


@pytest.mark.parametrize("eps", [6e-17, 0.5])
def test_transient_accepts_eps_at_the_ends_of_its_range(eps):
    # the result is within 2 eps in L1: eps outside the window, and at most
    # eps more inside it from normalizing the weights
    pi = transient(two_state_chain(lam=1.0), np.array([1.0, 0.0]), 7.0, eps=eps)
    assert 2 * abs(pi[0] - math.exp(-7.0)) <= 2 * eps + 1e-16


def _uniformized(gen):
    """Pᵀ = (I + Q/Λ)ᵀ at Λ = 1.02 × the largest exit rate."""
    lam = 1.02 * gen.max_exit_rate
    return (sp.eye(gen.n, format="csr") + gen.matrix / lam).T.tocsr()


def _per_term(pt, pi0, left, weights):
    """The per-term ``pt @ vec`` loop over the window: the clipped and
    renormalized sum, and its raw mass."""
    vec = np.array(pi0, dtype=np.float64)
    for _ in range(left):
        vec = pt @ vec
    acc = weights[0] * vec
    for w in weights[1:]:
        vec = pt @ vec
        acc += w * vec
    return np.clip(acc, 0.0, None) / np.clip(acc, 0.0, None).sum(), float(acc.sum())


def _int64(pt):
    wide = pt.copy()
    wide.indices = wide.indices.astype(np.int64)
    wide.indptr = wide.indptr.astype(np.int64)
    return wide


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transient_matvec_is_bit_identical_to_matmul(n):
    # reference: the per-term ``pt @ vec`` loop, on the same weights
    gen = build_generator(quotient_ts(n))
    pt = _uniformized(gen)
    pi0 = np.zeros(gen.n)
    pi0[0] = 1.0
    eps = 1e-12
    t = 300.0 / gen.max_exit_rate  # left > 0, so both kinds of term run
    left, right, weights = _poisson_window(1.02 * gen.max_exit_rate * t, eps)
    assert left > 0
    expected, raw_mass = _per_term(pt, pi0, left, weights.tolist())
    b = max(1, _RING // pt.nnz)
    # the ring that transient builds, then one built from an int64 Pᵀ
    for ring in (None, _ring(_int64(pt), b)):
        if ring is not None:
            gen._uniformized = ring
        details = {}
        got = transient(gen, pi0, t, eps=eps, details=details)
        assert details == {"raw_mass": raw_mass, "terms": right + 1, "left": left}
        assert got.tobytes() == expected.tobytes()
        assert gen._uniformized[0] == b
    assert gen._uniformized[2].dtype == np.int64


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _assert_numpy_matches_scipy(gen, part):
    """The diagonal, F = Q·V and Pᵀ in numpy against scipy's, in bytes; no
    pipeline step reads ``offdiag``."""
    flows = _class_flows(gen, part, 0.0)[2]
    if gen.max_exit_rate:
        pt = _p_transposed(gen, 1.02 * gen.max_exit_rate)
    assert "offdiag" not in vars(gen) and "matrix" not in vars(gen)
    _same_bytes(gen.diagonal, -np.asarray(gen.offdiag.sum(axis=1)).ravel())
    _labels, cls = np.unique(part, return_inverse=True)
    v = sp.csr_matrix((np.ones(gen.n), (np.arange(gen.n), cls)), shape=(gen.n, cls.max(initial=-1) + 1))
    # scipy's product leaves each row's columns in reverse first-seen order
    want = (gen.offdiag @ v).tocsr().sorted_indices()
    for got, name in zip(flows, ("indptr", "indices", "data")):
        wanted = getattr(want, name)
        _same_bytes(got, wanted if name == "data" else wanted.astype(np.int64))
    if gen.max_exit_rate:
        for name in ("indptr", "indices", "data"):
            _same_bytes(getattr(pt, name), getattr(_uniformized(gen), name))


@pytest.mark.parametrize("which, n", [("quotient", 1), ("quotient", 2), ("quotient", 3),
                                      ("ordinary", 1), ("ordinary", 2)])
def test_numpy_products_match_scipy(which, n):
    ts = (quotient_ts if which == "quotient" else ordinary_ts)(n)
    # the final states absorb: their diagonal is -0.0
    assert np.signbit(build_generator(ts).diagonal[list(ts.final_states())]).all()
    parts = [np.arange(len(ts)) % 5, np.zeros(len(ts), dtype=np.int64)]
    if which == "ordinary":
        parts.append(quotient_partition(ts, quotient_ts(n)))
    for part in parts:
        _assert_numpy_matches_scipy(build_generator(ts), part)


@given(lumping_cases())
def test_numpy_products_match_scipy_on_lumping_cases(case):
    _assert_numpy_matches_scipy(*case)


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@st.composite
def ring_cases(draw):
    """A small generator, pi0, t, eps, and the b of the ring to solve it on:
    past ``right``, or dividing ``right`` or ``right - 1``, or any."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    rate = st.floats(1 / 64, 8.0, allow_subnormal=False)
    gen = Generator(n, {key: draw(rate) for key in keys})  # states without an edge absorb
    pi0 = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=np.float64)
    if not pi0.any():
        pi0[draw(st.integers(0, n - 1))] = 1.0
    pi0 /= pi0.sum()
    eps = draw(st.sampled_from([0.5, 1e-3, 1e-9, 1e-12]))
    mu = draw(st.floats(1e-3, 80.0))  # the window starts at 0 for small mu
    t = mu / (1.02 * gen.max_exit_rate) if gen.max_exit_rate else mu
    right = _poisson_window(mu, eps)[1] if gen.max_exit_rate else 0
    how = draw(st.sampled_from(["past", "multiple", "one past", "any"]))
    if how == "past":
        b = right + draw(st.integers(1, 3))
    elif how == "multiple" and right >= 1:
        b = draw(st.sampled_from(_divisors(right)))
    elif how == "one past" and right >= 2:
        b = draw(st.sampled_from(_divisors(right - 1)))
    else:
        b = draw(st.integers(1, 6))
    return gen, pi0, t, eps, b, draw(st.booleans())


@settings(max_examples=300)
@given(ring_cases())
def test_ring_is_bit_identical_to_matmul_on_small_generators(case):
    gen, pi0, t, eps, b, wide = case
    details = {}
    if gen.max_exit_rate == 0 or pi0[gen._live].sum() <= eps / 2:
        # the absorbed-mass shortcut: no mat-vec runs
        assert transient(gen, pi0, t, eps=eps, details=details).tobytes() == pi0.tobytes()
        assert details == {"raw_mass": float(pi0.sum()), "terms": 0, "left": 0}
        return
    pt = _uniformized(gen)
    gen._uniformized = _ring(_int64(pt) if wide else pt, b)
    left, right, weights = _poisson_window(1.02 * gen.max_exit_rate * t, eps)
    expected, raw_mass = _per_term(pt, pi0, left, weights.tolist())
    got = transient(gen, pi0, t, eps=eps, details=details)
    assert details == {"raw_mass": raw_mass, "terms": right + 1, "left": left}
    assert got.tobytes() == expected.tobytes()


def test_ring_refuses_a_kernel_that_does_not_read_what_it_wrote(monkeypatch):
    # a kernel that reads a copy of its input fills the second block from
    # the zeroed first one; the ring is refused when built, never used
    gen = build_generator(quotient_ts(1))
    pt = _uniformized(gen)
    assert _RING // pt.nnz >= 2
    kernel = rwspn.ctmc.csr_matvec
    monkeypatch.setattr(rwspn.ctmc, "csr_matvec",
                        lambda *args: kernel(*args[:5], args[5].copy(), args[6]))
    with pytest.raises(RuntimeError, match="does not read and write one vector in row order"):
        transient(gen, [1.0] + [0.0] * (gen.n - 1), 10.0)
    assert gen._uniformized is None
    with pytest.raises(RuntimeError, match="row order"):
        _ring(_int64(pt), 2)
    # at b = 1 a call fills one block from the other, never from one it
    # wrote, so the copying kernel passes the check and gives the same bytes
    ring = _ring(pt, 1)
    assert ring[0] == 1 and len(ring[1]) == 2 * gen.n + 1
    gen._uniformized = ring
    pi0, t, eps = [1.0] + [0.0] * (gen.n - 1), 10.0, 1e-9
    left, right, weights = _poisson_window(1.02 * gen.max_exit_rate * t, eps)
    expected, raw_mass = _per_term(pt, pi0, left, weights.tolist())
    details = {}
    assert transient(gen, pi0, t, eps=eps, details=details).tobytes() == expected.tobytes()
    assert details == {"raw_mass": raw_mass, "terms": right + 1, "left": left}


def test_throughput_simple():
    ts = chain((0, 1, "as", 2.0))
    assert throughput(ts, [1.0, 0.0], "as") == 2.0
    assert throughput(ts, [0.0, 1.0], "as") == 0.0
    with pytest.warns(UserWarning):
        assert throughput(ts, [1.0, 0.0], "zz") == 0.0


def test_reliability_bounds():
    ts = quotient_ts(1)
    pi0 = np.zeros(len(ts))
    pi0[0] = 1.0
    assert reliability(ts, pi0) == 1.0
    absorbed = np.zeros(len(ts))
    absorbed[ts.final_states()[0]] = 1.0
    assert reliability(ts, absorbed) == pytest.approx(0.0)


def test_reliability_keeps_relative_precision():
    # 1 - (final mass) would read 0 here
    ts = chain((0, 1, "as", 1.0))
    assert reliability(ts, [1e-20, 1.0]) == 1e-20
    # R(t) = exp(-t) on 0 -> 1 at rate 1: the steps keep it to about 1e-11
    # relative, where 1 - (final mass) is off by 1.7e-5 relative at t = 28
    grid = [float(t) for t in range(1, 29)]
    series = measure_series(ts, Generator(2, {(0, 1): 1.0}), grid, eps=1e-12)
    for t, r in zip(grid, series.reliability):
        assert r == pytest.approx(math.exp(-t), rel=1e-9, abs=0)


def test_measure_series_warns_on_missing_tag():
    ts = quotient_ts(1)
    gen = build_generator(ts)
    with pytest.warns(UserWarning, match="nosuchtag"):
        series = measure_series(ts, gen, [1.0, 10.0], tag="nosuchtag")
    assert series.throughput == [0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        measure_series(ts, gen, [1.0, 10.0], tag="as")


def test_measure_series_reports_mass_defect():
    ts = quotient_ts(1)
    gen = build_generator(ts)
    grid = [1.0, 10.0, 100.0]
    series = measure_series(ts, gen, grid, eps=1e-9)
    pi = np.zeros(len(ts))
    pi[0] = 1.0
    worst, prev = 0.0, 0.0
    for t in grid:
        details = {}
        pi = transient(gen, pi, t - prev, eps=1e-9, details=details)
        prev = t
        worst = max(worst, abs(details["raw_mass"] - 1.0))
    assert series.max_mass_defect == worst
    assert worst <= 1e-9


def test_measure_series_shape_and_grid_validation():
    ts = quotient_ts(1)
    gen = build_generator(ts)
    with pytest.raises(ValueError):
        measure_series(ts, gen, [2.0, 1.0])
    series = measure_series(ts, gen, [1.0, 10.0, 100.0], eps=1e-9)
    assert series.times == [1.0, 10.0, 100.0]
    assert all(x >= 0 for x in series.throughput)
    assert series.reliability == sorted(series.reliability, reverse=True)


def test_throughput_reward_constant_within_classes():
    ordinary, quotient = ordinary_ts(1), quotient_ts(1)
    part = quotient_partition(ordinary, quotient)
    reward = np.zeros(len(ordinary))
    for src, _dst, label, rate in ordinary.edges:
        if label == "as":
            reward[src] += rate
    per_class = {}
    for i, cls in enumerate(part):
        per_class.setdefault(cls, set()).add(round(reward[i], 12))
    assert all(len(vals) == 1 for vals in per_class.values())


def test_lumping_commutes_with_transient():
    ordinary, quotient = ordinary_ts(1), quotient_ts(1)
    part = np.asarray(quotient_partition(ordinary, quotient))
    gen_o = build_generator(ordinary)
    gen_q = build_generator(quotient)
    pi_o = np.zeros(len(ordinary))
    pi_o[0] = 1.0
    pi_q = np.zeros(len(quotient))
    pi_q[0] = 1.0
    eps = 1e-10
    for t in (1.0, 100.0, 2000.0):
        po = transient(gen_o, pi_o, t, eps=eps)
        pq = transient(gen_q, pi_q, t, eps=eps)
        agg = np.zeros(len(quotient))
        for i, cls in enumerate(part):
            agg[cls] += po[i]
        assert np.max(np.abs(agg - pq)) <= 2 * eps


def test_default_grid():
    grid = default_grid()
    assert len(grid) == 60
    assert grid[0] == pytest.approx(1.0)
    assert grid[-1] == pytest.approx(1e4)
