import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from rwspn import (
    Bag,
    BudgetExceededError,
    Net,
    System,
    Transition,
    TransitionSystem,
    TransitionTag,
    build_npl_sys,
    explore,
    normalize,
    place,
    production_rules,
    quotient_partition,
    to_augmented,
)
from rwspn.canon import normalize_states
from rwspn.ctmc import Generator, build_generator, throughput
from rwspn.net import CompiledNet
from rwspn.rewrite import RewriteRule, compile_site

from conftest import chain, equal_tag_firing_and_rule, ordinary_ts, quotient_ts


def test_counts_small():
    assert (len(ordinary_ts(1)), len(ordinary_ts(1).final_states())) == (60, 2)
    assert (len(ordinary_ts(2)), len(ordinary_ts(2).final_states())) == (773, 4)
    assert (len(quotient_ts(1)), len(quotient_ts(1).final_states())) == (42, 2)
    assert (len(quotient_ts(2)), len(quotient_ts(2).final_states())) == (295, 2)


def test_initial_state_is_index_zero():
    ts = quotient_ts(2)
    assert ts.states[0] == normalize(build_npl_sys(2, 2, 2))
    assert ts.levels[0] == 0


def test_levels_monotone_and_edges_sorted():
    ts = quotient_ts(2)
    assert ts.levels == sorted(ts.levels)
    assert ts.edges == sorted(ts.edges)
    seen = set()
    for src, dst, label, _rate in ts.edges:
        assert (src, dst, label) not in seen
        seen.add((src, dst, label))


@pytest.mark.parametrize("ts", [quotient_ts(3), ordinary_ts(2)], ids=["quotient N=3", "ordinary N=2"])
def test_each_level_is_in_canonical_order(ts):
    # within a level, states are numbered by System.key: net text, then
    # marking text; a rule error is raised for the least failing position
    # of a level, so that order is what makes it the first in the numbering
    keys = [s.key for s in ts.states]
    nets = {}
    for level, key in zip(ts.levels, keys):
        nets.setdefault(level, set()).add(key[0])
    assert max(map(len, nets.values())) > 2  # levels that hold several nets
    for i in range(1, len(ts)):
        if ts.levels[i] == ts.levels[i - 1]:
            assert keys[i - 1] < keys[i]


def test_quotient_states_are_normal_forms():
    ts = quotient_ts(2)
    for s in ts.states[:40]:
        assert normalize(s) == s


def test_search_final_predicates():
    ts = quotient_ts(2)
    assert ts.search_final(lambda s: True) == ts.final_states()
    assert ts.search_final(lambda s: False) == ()


def test_deadlocked_initial_state():
    w = place(("w", 0))
    t = Transition(Bag({w: 1}), Bag({w: 1}), Bag(), TransitionTag("t"))
    ts = explore(System(Net((t,)), Bag()), (), mode="ordinary")
    assert len(ts) == 1
    assert ts.final_states() == (0,)
    # no edge at all: the generator and the tag rates are still float
    gen = build_generator(ts)
    assert gen.offdiag.dtype == gen.diagonal.dtype == np.float64
    with pytest.warns(UserWarning):
        assert throughput(ts, [1.0], "t") == 0.0


@pytest.mark.parametrize("mode", ["ordinary", "quotient"])
def test_firing_and_rule_with_equal_tag_and_target_merge(mode):
    # transition "x" and rule "x" both move the token from a to b
    system, rule = equal_tag_firing_and_rule()
    ts = explore(system, (rule,), mode=mode)
    assert len(ts) == 2
    assert ts.edges == [(0, 1, "x", 2.5)]


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError) as err:
        explore(build_npl_sys(2, 2, 2), production_rules(), mode="quotient", max_states=50)
    # checked once per BFS level, yet it reports the first state that did not fit
    assert err.value.states == 51
    assert err.value.budget == 50
    for budget in (2.5, True):
        with pytest.raises(ValueError, match="max_states must be an int or None"):
            explore(build_npl_sys(2, 2, 2), production_rules(), mode="quotient", max_states=budget)


BUDGET_MODELS = {
    "quotient N=2 with rules": (2, 2, 2, True, "quotient"),
    "firing-only k=3 m=3 N=1": (1, 3, 3, False, "ordinary"),
}


@pytest.mark.parametrize("model", sorted(BUDGET_MODELS))
def test_budget_reports_the_state_and_level_that_did_not_fit(model):
    n, k, m, with_rules, mode = BUDGET_MODELS[model]
    system, rules = build_npl_sys(n, k, m), production_rules() if with_rules else ()
    full = explore(system, rules, mode=mode)
    # every level boundary, and one state on either side of it
    starts = [b for b in range(1, len(full)) if full.levels[b] != full.levels[b - 1]]
    budgets = sorted({b + d for b in (0, *starts) for d in (-1, 0, 1)} & set(range(len(full))))
    assert len(budgets) > 2 * len(starts)
    for b in budgets:
        with pytest.raises(BudgetExceededError) as err:
            explore(system, rules, mode=mode, max_states=b)
        assert (err.value.states, err.value.level, err.value.budget) == (b + 1, full.levels[b], b)
    assert len(explore(system, rules, mode=mode, max_states=len(full))) == len(full)


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_counts_the_initial_state(budget):
    with pytest.raises(BudgetExceededError) as err:
        explore(System(Net(), Bag()), max_states=budget)
    assert (err.value.states, err.value.level, err.value.budget) == (1, 0, budget)
    assert len(explore(System(Net(), Bag()), max_states=1)) == 1


P0 = place(("p", 0))


def _drain(tokens: int) -> System:
    """One place holding ``tokens``; one transition takes a token from it."""
    net = Net((Transition(Bag({P0: 1}), Bag(), Bag(), TransitionTag("t")),))
    return System(net, Bag({P0: tokens}))


# the empty net rewrites to ``_drain(2)``; no other net has a match
SEED = RewriteRule(
    "seed",
    0.5,
    sites=lambda n: [] if n.transitions else [
        compile_site(n, (), Bag(), Net(), _drain(2), lambda pl: None)
    ],
)


@pytest.mark.parametrize("mode", ["quotient", "ordinary"])
def test_the_empty_net_explores_to_one_state(mode, tmp_path):
    ts = explore(System(Net()), mode=mode)
    assert len(ts) == 1 and ts.final_states() == (0,) and ts.edges == []
    assert ts.states[0] == System(Net())
    ts.write_states(tmp_path / "states.txt")
    ts.write_edges(tmp_path / "edges.txt")
    build_generator(ts).write_coo(tmp_path / "generator.coo")
    assert (tmp_path / "states.txt").read_text() == "emptyN  nilP\n"
    assert (tmp_path / "edges.txt").read_text() == ""
    assert (tmp_path / "generator.coo").read_text() == "1\n"


@pytest.mark.parametrize("start", [System(Net()), _drain(2)], ids=["zero-place", "one-place"])
def test_zero_and_one_place_states(start):
    # the zero-place start reaches the one-place net through a rule
    quotient = explore(start, (SEED,), mode="quotient")
    ordinary = explore(start, (SEED,), mode="ordinary")
    zero = not start.net.transitions
    expected = [System(Net())] * zero + [_drain(2), _drain(1), _drain(0)]
    assert list(quotient.states) == list(ordinary.states) == expected
    assert quotient.edges == ordinary.edges
    assert [e[2:] for e in quotient.edges] == [("seed", 0.5)] * zero + [("t", 1.0)] * 2
    assert normalize_states(ordinary._cells) == quotient._cells
    assert normalize_states(quotient._cells[:1]) == quotient._cells[:1]
    assert quotient_partition(ordinary, quotient) == list(range(len(expected)))
    empty = to_augmented(System(Net()), (SEED,))
    assert (empty.firing_targets, empty.rewrite_targets) == ({}, {_drain(2): {"seed": 0.5}})
    one = to_augmented(_drain(2), (SEED,))
    assert (one.firing_targets, one.rewrite_targets) == ({Bag({P0: 1}): {"t": 1.0}}, {})
    assert to_augmented(_drain(0), (SEED,)).firing_targets == {}


def test_invalid_mode():
    with pytest.raises(ValueError):
        explore(build_npl_sys(1, 2, 2), (), mode="weird")


def test_quotient_soundness_exhaustive():
    # every ordinary edge projects onto a quotient edge whose rate aggregates
    # the parallel ordinary edges with the same label from the same source
    for n in (1, 2):
        ordinary, quotient = ordinary_ts(n), quotient_ts(n)
        part = quotient_partition(ordinary, quotient)
        qedges = {}
        for src, dst, label, rate in quotient.edges:
            qedges[(src, dst, label)] = rate
        for i, _s in enumerate(ordinary.states):
            acc = {}
            for src, dst, label, rate in ordinary.edges:
                if src == i:
                    key = (part[src], part[dst], label)
                    acc[key] = acc.get(key, 0.0) + rate
            for key, rate in acc.items():
                assert key in qedges
                assert rate == pytest.approx(qedges[key], abs=1e-12)


def test_final_classes_are_normalize_image_of_ordinary_finals():
    for n in (1, 2):
        ordinary, quotient = ordinary_ts(n), quotient_ts(n)
        part = quotient_partition(ordinary, quotient)
        image = {part[i] for i in ordinary.final_states()}
        assert image == set(quotient.final_states())


def test_quotient_partition_rejects_mismatched_systems():
    # an ordinary state outside the quotient is named by its index
    with pytest.raises(ValueError, match="ordinary state 0 is not in the quotient"):
        quotient_partition(ordinary_ts(2), quotient_ts(1))
    # explored from after the first fault, the ordinary system never
    # returns to the initial state, so quotient state 0 is not covered
    quotient = quotient_ts(1)
    (fault,) = [dst for src, dst, label, _rate in quotient.edges if src == 0 and label == "ft"]
    after = explore(quotient.states[fault], production_rules(), mode="ordinary")
    with pytest.raises(ValueError, match="does not cover"):
        quotient_partition(after, quotient)


@lru_cache(maxsize=None)
def _firing_ts():
    return explore(build_npl_sys(1, 3, 3), (), mode="ordinary")


EXPLORED = {
    "quotient-2": quotient_ts,
    "ordinary-2": ordinary_ts,
    "firing-1-3-3": lambda _n: _firing_ts(),
}


def test_exports_roundtrip_shape(tmp_path):
    # every line, not only the first, for a model with rules and one without
    for ts in (quotient_ts(2), _firing_ts()):
        ts.write_states(tmp_path / "states.txt")
        ts.write_edges(tmp_path / "edges.txt")
        states = (tmp_path / "states.txt").read_text().splitlines()
        edges = (tmp_path / "edges.txt").read_text().splitlines()
        assert states == [s.canonical() for s in ts.states]
        parsed = [line.split(" ") for line in edges]
        assert [(int(s), int(d), lab, float(r)) for s, d, lab, r in parsed] == ts.edges


def test_explore_keeps_no_rendered_marking():
    # the 11,120 states of the firing-only N=2 model: their rendered
    # markings were 4.4 MB of the 8.0 MB that ``explore`` kept
    tracemalloc.start()
    try:
        ts = explore(build_npl_sys(2, 3, 3), (), mode="ordinary")
        kept, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ts) == 11120 and not hasattr(ts, "_marks")
    assert kept < 5 * 2**20


def test_write_states_renders_in_bounded_slices(tmp_path):
    # a slice of rendered rows is held while writing, not the whole net's
    # run of them: 30.7 MB of text, which a join and its encoding hold twice
    ts = explore(build_npl_sys(2, 3, 3), (), mode="ordinary")
    tracemalloc.start()
    try:
        start, _peak = tracemalloc.get_traced_memory()
        ts.write_states(tmp_path / "states.txt")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 1.5 * 2**20


@pytest.fixture
def decodes(monkeypatch):
    """Counts the ``CompiledNet.decode`` calls made while the test runs."""
    calls = []
    decode = CompiledNet.decode

    def counted(self, vec):
        calls.append(vec)
        return decode(self, vec)

    monkeypatch.setattr(CompiledNet, "decode", counted)
    return calls


def test_explore_and_exports_decode_no_state(decodes, tmp_path):
    ts = explore(build_npl_sys(2, 2, 2), production_rules(), mode="quotient")
    ts.write_states(tmp_path / "states.txt")
    ts.write_edges(tmp_path / "edges.txt")
    build_generator(ts).write_coo(tmp_path / "generator.coo")
    finals = ts.final_states()
    assert len(ts) == len(ts.states) == 295
    quotient_partition(ordinary_ts(2), ts)
    assert decodes == []
    # only the states read are decoded
    assert ts.search_final(lambda s: True) == finals
    assert len(decodes) == len(finals)
    assert len(ts.states[3:8]) == 5
    assert len(decodes) == len(finals) + 5


def test_state_view_reads_like_a_list():
    ts = quotient_ts(2)
    full = list(ts.states)
    assert len(full) == len(ts)
    assert ts.states[-1] == full[-1]
    assert ts.states[10:20:3] == full[10:20:3]
    assert full[5] in ts.states
    assert ts.states.index(full[5]) == 5
    sample = random.Random(0).sample(ts.states, 7)
    assert all(s in full for s in sample)
    with pytest.raises(IndexError):
        ts.states[len(ts)]


def _dict_generator(ts):
    """``build_generator`` as the dict loop it replaced: the reference."""
    acc = {}
    for src, dst, _label, rate in ts.edges:
        if src != dst:
            acc[(src, dst)] = acc.get((src, dst), 0.0) + rate
    return Generator(len(ts), acc)


def _same_generator(a, b):
    assert a.n == b.n
    for x, y in ((a.offdiag, b.offdiag), (a.matrix, b.matrix)):
        for name in ("data", "indices", "indptr"):
            got, want = getattr(x, name), getattr(y, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("which", sorted(EXPLORED))
def test_generator_from_arrays_matches_dict_loop(which):
    ts = EXPLORED[which](2)
    _same_generator(build_generator(ts), _dict_generator(ts))
    pi = np.linspace(1.0, 2.0, len(ts))
    # the loop that summed each tag's rates per state, in edge order
    rates = np.zeros(len(ts))
    for src, _dst, label, rate in ts.edges:
        if label == "as":
            rates[src] += rate
    assert throughput(ts, pi, "as") == float(np.dot(pi, rates))


def test_duplicate_edges_are_refused():
    # the successor merge sums same-label edges between two states, so two
    # of them reaching the constructor is a fault
    ts = chain((0, 1, "x", 1.0))
    src, dst, kind = np.array([0, 0]), np.array([1, 1]), np.array([0, 1])
    with pytest.raises(AssertionError, match=r"duplicate edge \(0, 1, 'x'\)"):
        TransitionSystem(ts._cells, ts.levels, src, dst, kind, [("x", 1.0), ("x", 2.0)])
