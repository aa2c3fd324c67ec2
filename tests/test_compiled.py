"""The integer form of nets against the Bag-level definitions."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwspn import (
    Bag,
    Net,
    RewriteRule,
    System,
    Transition,
    TransitionTag,
    apply_assignment,
    brute_force_normal,
    build_npl_sys,
    compile_site,
    explore,
    fire_agg,
    has_concession,
    normalize,
    npl_net,
    place,
    rule_app,
)

from rwspn.net import CompiledNet
from rwspn.rewrite import expand

from conftest import ordinary_ts, quotient_ts, random_marking

W0 = place(("w", 0))
A0 = place(("a", 0))
F0 = place(("f", 0))


def reference_successors(system: System) -> list:
    """Concession, then the max-priority filter, then marking - input + output."""
    holders = [t for t in system.net if has_concession(t, system.marking)]
    top = max((t.tag.priority for t in holders), default=0)
    return [
        (t, system.marking - t.input + t.output) for t in holders if t.tag.priority == top
    ]


def kernel_successors(system: System) -> list:
    cnet = system.net.compiled()
    _has, _rows, ts, targets = cnet.step(np.array([cnet.encode(system.marking)], dtype=np.int64))
    return [
        (system.net.transitions[k], cnet.decode(nxt))
        for k, nxt in zip(ts.tolist(), targets.tolist())
    ]


def assert_kernel_matches(system: System) -> None:
    cnet = system.net.compiled()
    vec = cnet.encode(system.marking)
    decoded = cnet.decode(vec)
    assert decoded == system.marking
    assert decoded.items() == system.marking.items()
    assert cnet.render(np.array([vec], dtype=np.int64)) == [system.marking.render()]
    assert kernel_successors(system) == reference_successors(system)


def assert_batch_matches(net: Net, markings: list) -> None:
    """The batch expansion of all ``markings`` of ``net``, stacked into one
    block, against the reference, marking by marking."""
    cnet = net.compiled()
    block = np.array([cnet.encode(m) for m in markings], dtype=np.int64)
    block = block.reshape(len(markings), len(cnet.places))
    has = cnet.step(block)[0]
    assert has.shape == (len(markings), len(net))
    for row, m in zip(has.tolist(), markings):
        assert row == [has_concession(t, m) for t in net]
    steps, failures = expand(net, block, ())
    assert failures == [] and len(steps) == 1
    rows, target, targets, rule, ts = steps[0]
    assert target is net and rule is None
    assert targets.shape == (len(rows), len(cnet.places))
    assert list(rows) == sorted(rows)
    got = [[] for _ in markings]
    for r, t, nxt in zip(rows.tolist(), ts.tolist(), targets.tolist()):
        got[r].append((net.transitions[t], cnet.decode(tuple(nxt))))
    assert got == [reference_successors(System(net, m)) for m in markings]


def by_net(ts) -> dict:
    groups = {}
    for s in ts.states:
        groups.setdefault(s.net, []).append(s.marking)
    return groups


def small_nets():
    low = Transition(Bag({W0: 1}), Bag({A0: 1}), Bag(), TransitionTag("low", 0, 1.0))
    high = Transition(Bag({W0: 1}), Bag({F0: 1}), Bag(), TransitionTag("high", 1, 1.0))
    guarded = Transition(Bag({W0: 1}), Bag({A0: 1}), Bag({F0: 2}), TransitionTag("t"))
    line = Transition(Bag({W0: 1}), Bag({A0: 1}), Bag({F0: 1}), TransitionTag("ln", 0, 0.1))
    refill = Transition(Bag({A0: 2}), Bag({W0: 1, F0: 1}), Bag(), TransitionTag("rf", 2, 3.0))
    # no input and no inhibitor: concession without a single check
    source = Transition(Bag(), Bag({A0: 1}), Bag(), TransitionTag("src", 0, 2.0))
    return {
        "priority": Net((low, high)),
        "no-competitor": Net((low,)),
        "inhibitor": Net((guarded,)),
        "duplicates": Net((line, line)),
        "three-priorities": Net((low, high, guarded, refill)),
        "empty": Net(),
        "source": Net((source, high)),
    }


@pytest.mark.parametrize("name", small_nets())
def test_kernel_on_priority_and_inhibitor_nets(name):
    net = small_nets()[name]
    places = net.places()
    for counts in itertools.product(range(4), repeat=len(places)):
        assert_kernel_matches(System(net, Bag(dict(zip(places, counts)))))


@pytest.mark.parametrize("name", small_nets())
def test_batch_on_priority_and_inhibitor_nets(name):
    net = small_nets()[name]
    places = net.places()
    markings = [
        Bag(dict(zip(places, counts))) for counts in itertools.product(range(4), repeat=len(places))
    ]
    assert_batch_matches(net, markings)
    # a group in which no row has an enabled transition
    stuck = [m for m in markings if not reference_successors(System(net, m))]
    assert bool(stuck) == (name != "source")
    if stuck:
        assert_batch_matches(net, stuck)


def test_batch_on_ordinary_state_space_with_rules():
    groups = by_net(ordinary_ts(2))
    assert sum(map(len, groups.values())) == 773
    for net, markings in groups.items():
        assert_batch_matches(net, markings)


def test_batch_on_firing_only_state_space():
    groups = by_net(explore(build_npl_sys(1, 3, 3), (), mode="ordinary"))
    assert [len(markings) for markings in groups.values()] == [400]
    for net, markings in groups.items():
        assert_batch_matches(net, markings)


def test_kernel_on_ordinary_state_space_with_rules():
    ts = ordinary_ts(2)
    assert len(ts) == 773
    for s in ts.states:
        assert_kernel_matches(s)


def test_kernel_on_firing_only_state_space():
    ts = explore(build_npl_sys(1, 3, 3), (), mode="ordinary")
    assert len(ts) == 400
    for s in ts.states:
        assert_kernel_matches(s)


def assert_renders_like_bags(net: Net, block: np.ndarray) -> None:
    """The block renderer against ``Bag.render`` of each decoded row."""
    cnet = net.compiled()
    assert cnet.render(block) == [cnet.decode(row).render() for row in block.tolist()]


@pytest.mark.parametrize(
    "make",
    [lambda: quotient_ts(3), lambda: explore(build_npl_sys(2, 3, 3), (), mode="ordinary")],
    ids=["quotient-3", "ordinary-2-3-3"],
)
def test_block_render_matches_bag_render_on_every_state(make, tmp_path):
    # the 11,120 ordinary states share one net, whose rows
    # ``write_states`` renders in eleven slices
    ts = make()
    ts.write_states(tmp_path / "states.txt")
    lines = (tmp_path / "states.txt").read_text().splitlines()
    assert lines == [s.canonical() for s in ts.states]
    for net, markings in by_net(ts).items():
        block = np.array([net.compiled().encode(m) for m in markings], dtype=np.int64)
        assert_renders_like_bags(net, block)


@pytest.mark.parametrize("top", [100, 2**63 - 1])
def test_block_render_orders_places_not_count_text(top):
    # "10" < "100" < "12" < "9" as text; the tokens keep place order
    net = npl_net(1, 2)
    width = len(net.compiled().places)
    counts = [0, 9, 10, 12, top]
    rows = [[counts[(i + j) % len(counts)] for j in range(width)] for i in range(len(counts))]
    rows += [[c] * width for c in counts] + [[0] * (width - 1) + [top]]
    block = np.array(rows, dtype=np.int64)
    assert_renders_like_bags(net, block)
    assert net.compiled().render(np.zeros((1, width), dtype=np.int64)) == ["nilP"]
    assert Net().compiled().render(np.zeros((2, 0), dtype=np.int64)) == ["nilP", "nilP"]


@given(st.lists(
    st.lists(st.one_of(st.integers(0, 12), st.integers(0, 2**63 - 1)), min_size=3, max_size=3),
    max_size=12,
))
def test_block_render_matches_bag_render_on_random_counts(rows):
    net = small_nets()["three-priorities"]
    assert len(net.compiled().places) == 3
    assert_renders_like_bags(net, np.array(rows, dtype=np.int64).reshape(len(rows), 3))


def test_compiling_builds_no_step_arrays_until_the_first_step():
    # many compiled nets are only indexed, encoded, decoded or rendered
    system = build_npl_sys(1, 2, 2)
    cnet = CompiledNet(system.net)  # nets are interned, so compiled() may be stepped already
    block = np.array([cnet.encode(system.marking)], dtype=np.int64)
    assert cnet.decode(block[0].tolist()) == system.marking
    assert cnet.render(block) == [system.marking.render()]
    assert cnet._arrays is None
    first = cnet.step(block)
    arrays = cnet._arrays
    assert arrays is not None
    again = cnet.step(block)
    assert cnet._arrays is arrays
    for a, b, c in zip(first, again, system.net.compiled().step(block)):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_encode_rejects_foreign_places():
    net = Net((Transition(Bag({W0: 1}), Bag({A0: 1}), Bag(), TransitionTag("t")),))
    with pytest.raises(ValueError):
        net.compiled().encode(Bag({F0: 1}))


def test_encode_refuses_counts_outside_int64():
    net = Net((Transition(Bag({W0: 1}), Bag({A0: 1}), Bag(), TransitionTag("t")),))
    top = 2**63 - 1
    assert net.compiled().encode(Bag({W0: top})) == (0, top)
    with pytest.raises(ValueError, match="does not fit in int64"):
        net.compiled().encode(Bag({W0: top + 1}))
    with pytest.raises(ValueError, match="does not fit in int64"):
        explore(System(net, Bag({W0: top + 1})), mode="ordinary")


def test_firing_refuses_counts_that_do_not_fit_in_int64():
    # p -> 2p adds one token: 2**63 - 2 fires to the top count, which the next firing passes
    p = place(("p", 0))
    net = Net((Transition(Bag({p: 1}), Bag({p: 2}), Bag(), TransitionTag("t")),))
    top = 2**63 - 1
    targets = net.compiled().step(np.array([[top - 1]], dtype=np.int64))[3]
    assert targets.tolist() == [[top]]
    for mode in ("quotient", "ordinary"):
        with pytest.raises(ValueError, match="after firing does not fit in int64"):
            explore(System(net, Bag({p: top})), mode=mode)
    with pytest.raises(ValueError, match="after firing does not fit in int64"):
        fire_agg(System(net, Bag({p: top})))


def test_rule_results_refuse_counts_that_do_not_fit_in_int64():
    # one site moves the tokens of a and b onto c
    a, b, c = (place((tag, 0)) for tag in "abc")
    net = Net((Transition(Bag({a: 1}), Bag({b: 1}), Bag(), TransitionTag("t")),))
    only_c = System(Net((Transition(Bag({c: 1}), Bag({c: 1}), Bag(), TransitionTag("u")),)))
    merge = RewriteRule(
        "merge", 1.0, sites=lambda n: [compile_site(n, (), Bag(), Net(), only_c, lambda pl: c)]
    )
    fits = rule_app(merge, System(net, Bag({a: 2**62, b: 2**62 - 1})))
    assert fits[0][1].marking == Bag({c: 2**63 - 1})
    system = System(net, Bag({a: 2**62, b: 2**62}))
    with pytest.raises(ValueError) as direct:
        rule_app(merge, system)
    assert str(direct.value) == "result has a count that does not fit in int64 (target place 0)"
    for mode in ("quotient", "ordinary"):
        with pytest.raises(ValueError) as explored:
            explore(system, (merge,), mode=mode)
        assert str(explored.value) == str(direct.value)


def test_vector_normalize_matches_brute_force_on_ordinary_states():
    for s in ordinary_ts(2).states:
        assert normalize(s).key == brute_force_normal(s).key


def test_vector_normalize_orders_counts_as_rendered_text():
    # the PL columns sort by count text, so "10" comes before "9"
    net = npl_net(3, 2)
    rng = random.Random(61)
    for _ in range(50):
        s = System(net, random_marking(net, rng, max_count=12))
        assert normalize(s).key == brute_force_normal(s).key


def test_vector_normalize_with_one_nontrivial_candidate():
    # siblings that differ in rate: the minimal net is reached by one
    # assignment only, which is not the identity on the swapped net
    move = lambda i: Transition(
        Bag({place(("a", 0), ("X", i)): 1}), Bag({place(("b", 0), ("X", i)): 1}), Bag(),
        TransitionTag("mv", 0, float(i + 1)),
    )
    net = Net(move(i) for i in range(3))
    swapped = apply_assignment(System(net), {((), "X"): {0: 2, 1: 0, 2: 1}}).net
    assert swapped is not net
    rng = random.Random(67)
    for _ in range(30):
        s = System(swapped, random_marking(swapped, rng))
        assert normalize(s).key == brute_force_normal(s).key
