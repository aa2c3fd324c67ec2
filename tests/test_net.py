import math
import random

import pytest

from rwspn import (
    Bag,
    Net,
    NotEnabledError,
    System,
    Transition,
    TransitionTag,
    apply_assignment,
    build_npl_sys,
    dead,
    enab_set,
    enabled,
    enabled_instances,
    fire,
    has_concession,
    pl_net,
    place,
)

W0 = place(("w", 0))
A0 = place(("a", 0))
F0 = place(("f", 0))

LINE = Transition(Bag({W0: 1}), Bag({A0: 1}), Bag({F0: 1}), TransitionTag("ln", 0, 0.1))


def test_concession_basic():
    assert has_concession(LINE, Bag({W0: 1}))
    assert not has_concession(LINE, Bag({W0: 1, F0: 1}))


def test_concession_empty_transition():
    t = Transition(Bag(), Bag({A0: 1}), Bag(), TransitionTag("t"))
    assert has_concession(t, Bag())
    assert has_concession(t, Bag({W0: 7}))


def test_inhibitor_bound_is_strict():
    t = Transition(Bag({W0: 1}), Bag({A0: 1}), Bag({F0: 2}), TransitionTag("t"))
    assert has_concession(t, Bag({W0: 1, F0: 1}))
    assert not has_concession(t, Bag({W0: 1, F0: 2}))


def test_fire_line():
    assert fire(LINE, Bag({W0: 1})) == Bag({A0: 1})


def test_fire_requires_concession():
    with pytest.raises(NotEnabledError):
        fire(LINE, Bag({W0: 1, F0: 1}))


def test_fire_noop_transition():
    t = Transition(Bag({W0: 1}), Bag({W0: 1}), Bag(), TransitionTag("t"))
    m = Bag({W0: 1, A0: 2})
    assert fire(t, m) == m


def test_priority_rule():
    t0 = Transition(Bag({W0: 1}), Bag({A0: 1}), Bag(), TransitionTag("low", 0, 1.0))
    t1 = Transition(Bag({W0: 1}), Bag({F0: 1}), Bag(), TransitionTag("high", 1, 1.0))
    s = System(Net((t0, t1)), Bag({W0: 1}))
    assert not enabled(t0, s)
    assert enabled(t1, s)
    assert enab_set(s) == (t1,)
    # without the high-priority competitor, the low one is enabled
    s0 = System(Net((t0,)), Bag({W0: 1}))
    assert enabled(t0, s0)


def test_priority_zero_net_enabled_equals_concession():
    rng = random.Random(7)
    places = [place(("p", i)) for i in range(4)]
    for _ in range(50):
        ts = []
        for j in range(rng.randint(1, 4)):
            pick = lambda: Bag({pl: rng.randint(1, 2) for pl in rng.sample(places, rng.randint(0, 2))})
            ts.append(Transition(pick(), pick(), pick(), TransitionTag(f"t{j}")))
        net = Net(ts)
        m = Bag({pl: rng.randint(0, 2) for pl in net.places() if rng.random() < 0.7})
        s = System(net, m)
        assert set(enab_set(s)) == {t for t in net if has_concession(t, m)}


def test_token_accounting():
    rng = random.Random(11)
    sys0 = build_npl_sys(2, 2, 2)
    for t in sys0.net:
        m = sys0.marking + t.input
        if has_concession(t, m):
            m2 = fire(t, m)
            assert m2.size == m.size - t.input.size + t.output.size


def test_enab_set_initial_production_system():
    s = build_npl_sys(2, 2, 2)
    tags = sorted(t.tag.tag for t in enabled_instances(s))
    assert tags == ["ft", "ft", "ft", "ft", "ld", "ld"]


def test_enab_set_empty_cases():
    s = System(Net(), Bag())
    assert enab_set(s) == ()
    needy = Transition(Bag({W0: 1}), Bag({A0: 1}), Bag(), TransitionTag("t"))
    assert enab_set(System(Net((needy,)), Bag())) == ()


def test_dead():
    assert dead(Net(), Bag({}))
    single = Net((LINE,))
    assert not dead(single, Bag({W0: 1}))
    assert dead(single, Bag({W0: 1, F0: 1}))


def test_system_validates_marking_support():
    with pytest.raises(ValueError):
        System(Net((LINE,)), Bag({place(("zz", 0)): 1}))


def test_transition_rendering():
    got = LINE.render()
    assert got == (
        '[1 . p(< "w" ; 0 >), 1 . p(< "a" ; 0 >), 1 . p(< "f" ; 0 >)] '
        '|-> << "ln", 0, 0.1 >>'
    )


def test_net_rendering_sorted_and_empty():
    assert Net().render() == "emptyN"
    t2 = Transition(Bag({A0: 1}), Bag({W0: 1}), Bag(), TransitionTag("bk", 0, 1.0))
    net = Net((LINE, t2))
    assert net.render() == " ; ".join(t.render() for t in sorted(net, key=lambda t: t.sort_key))


def test_system_canonical_single_line():
    s = System(Net((LINE,)), Bag({W0: 1}))
    assert "\n" not in s.canonical()
    assert s.canonical() == s.net.render() + "  " + s.marking.render()
    assert s.pretty() == s.net.pretty() + "\n\n" + s.marking.render()


def test_place_order_and_interning():
    a = place(("a", 0), ("L", 1))
    b = place(("a", 0), ("L", 1))
    assert a is b
    assert place(("a", 0)) < place(("o", 0)) < place(("w", 0))
    assert place(("w", 0)) < place(("w", 0), ("L", 1))
    # transitions and nets are interned too: equal values are one object
    line = Transition(Bag({W0: 1}), Bag({A0: 1}), Bag({F0: 1}), TransitionTag("ln", 0, 0.1))
    assert line is LINE
    back = Transition(Bag({A0: 1}), Bag({W0: 1}), Bag(), TransitionTag("back"))
    assert Net((back, LINE, LINE)) is Net((LINE, back, LINE))
    assert Net((LINE,)) is not Net((LINE, LINE))
    # swapping the two lines maps the symmetric net onto itself
    net = pl_net(2)
    s = System(net, Bag({place(("w", 0), ("L", 0)): 1}))
    swapped = apply_assignment(s, {((), "L"): {0: 1, 1: 0}})
    assert swapped.marking == Bag({place(("w", 0), ("L", 1)): 1})
    assert swapped.net is net


def test_tag_validation():
    with pytest.raises(ValueError):
        TransitionTag("bad tag", 0, 1.0)
    for rate in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rate must be positive"):
            TransitionTag("t", 0, rate)
    with pytest.raises(ValueError):
        place(("", 0))
    with pytest.raises(ValueError):
        place(("w", -1))


def test_bool_priority_is_refused_and_cannot_reach_the_pool():
    # True == 1 and hash(True) == hash(1), so an accepted True would be
    # interned as the priority-1 transition and render as "True" for it
    arcs = (Bag({W0: 1}), Bag({A0: 1}), Bag())
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"invalid priority {flag}"):
            Transition(*arcs, TransitionTag("pooled", flag, 2.0))
    for priority in (1, 0):
        t = Transition(*arcs, TransitionTag("pooled", priority, 2.0))
        assert t.tag.priority is priority
        assert Net((t,)).render().endswith(f'<< "pooled", {priority}, 2.0 >>')


def test_duplicate_transitions_kept():
    net = Net((LINE, LINE))
    assert len(net) == 2
    s = System(net, Bag({W0: 1}))
    assert len(enabled_instances(s)) == 2
    assert enab_set(s) == (LINE,)
