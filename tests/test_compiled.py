"""The integer form of nets against the Bag-level definitions."""

import itertools
import random

import pytest

from rwspn import (
    Bag,
    Net,
    System,
    Transition,
    TransitionTag,
    apply_assignment,
    brute_force_normal,
    build_npl_sys,
    explore,
    has_concession,
    normalize,
    npl_net,
    place,
)

from conftest import ordinary_ts, random_marking

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
    return [(t, cnet.decode(nxt)) for t, nxt in cnet.successors(cnet.encode(system.marking))]


def assert_kernel_matches(system: System) -> None:
    cnet = system.net.compiled()
    vec = cnet.encode(system.marking)
    decoded = cnet.decode(vec)
    assert decoded == system.marking
    assert decoded.items() == system.marking.items()
    assert cnet.render(vec) == system.marking.render()
    assert kernel_successors(system) == reference_successors(system)


def small_nets():
    low = Transition(Bag({W0: 1}), Bag({A0: 1}), Bag(), TransitionTag("low", 0, 1.0))
    high = Transition(Bag({W0: 1}), Bag({F0: 1}), Bag(), TransitionTag("high", 1, 1.0))
    guarded = Transition(Bag({W0: 1}), Bag({A0: 1}), Bag({F0: 2}), TransitionTag("t"))
    line = Transition(Bag({W0: 1}), Bag({A0: 1}), Bag({F0: 1}), TransitionTag("ln", 0, 0.1))
    refill = Transition(Bag({A0: 2}), Bag({W0: 1, F0: 1}), Bag(), TransitionTag("rf", 2, 3.0))
    return {
        "priority": Net((low, high)),
        "no-competitor": Net((low,)),
        "inhibitor": Net((guarded,)),
        "duplicates": Net((line, line)),
        "three-priorities": Net((low, high, guarded, refill)),
        "empty": Net(),
    }


@pytest.mark.parametrize("name", small_nets())
def test_kernel_on_priority_and_inhibitor_nets(name):
    net = small_nets()[name]
    places = net.places()
    for counts in itertools.product(range(4), repeat=len(places)):
        assert_kernel_matches(System(net, Bag(dict(zip(places, counts)))))


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


def test_encode_rejects_foreign_places():
    net = Net((Transition(Bag({W0: 1}), Bag({A0: 1}), Bag(), TransitionTag("t")),))
    with pytest.raises(ValueError):
        net.compiled().encode(Bag({F0: 1}))


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
