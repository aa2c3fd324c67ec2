import pytest

from rwspn import (
    Bag,
    DetachError,
    Net,
    System,
    Transition,
    TransitionTag,
    detach,
    join,
    match_tag,
    min_index_not_in,
    npl_net,
    pl_net,
    place,
    repl_share,
    set_mark,
    subag,
    subnet_by_pair,
    cycle_net,
)
from rwspn.ftps import ASSEMBLE_TAG, FAULT_TAG, LINE_TAG, LOAD_TAG

S = place(("s", 0))
O = place(("o", 0))


def by_tag(net, tag):
    return [t for t in net if t.tag.tag == tag]


def test_pl2_loader_merged():
    net = pl_net(2)
    (ld,) = by_tag(net, "ld")
    assert ld.input == Bag({S: 2})
    assert ld.output == Bag({place(("w", 0), ("L", 0)): 1, place(("w", 0), ("L", 1)): 1})
    assert ld.inhibitor == Bag()


def test_pl2_assembler_merged():
    net = pl_net(2)
    (ass,) = by_tag(net, "as")
    assert ass.input == Bag({place(("a", 0), ("L", 0)): 1, place(("a", 0), ("L", 1)): 1})
    assert ass.output == Bag({S: 2})


def test_pl2_faults_replicated_with_shared_trigger():
    net = pl_net(2)
    fts = by_tag(net, "ft")
    assert len(fts) == 2
    assert all(t.input == Bag({O: 1}) for t in fts)
    assert sorted((t.output for t in fts), key=lambda b: b.items()) == [
        Bag({place(("f", 0), ("L", 0)): 1}),
        Bag({place(("f", 0), ("L", 1)): 1}),
    ]


def test_pl2_lines_replicated():
    net = pl_net(2)
    lns = by_tag(net, "ln")
    assert len(lns) == 2
    for i, t in enumerate(sorted(lns, key=lambda t: t.sort_key)):
        assert t.input == Bag({place(("w", 0), ("L", i)): 1})
        assert t.output == Bag({place(("a", 0), ("L", i)): 1})
        assert t.inhibitor == Bag({place(("f", 0), ("L", i)): 1})


def test_repl_share_k1_all_shared_tags_keeps_arcs():
    base = cycle_net()
    out = repl_share(base, 1, "X", (), {LOAD_TAG, LINE_TAG, ASSEMBLE_TAG, FAULT_TAG})
    assert len(out) == len(base)
    for t_in, t_out in zip(base, out):
        assert t_out.input.size == t_in.input.size
        assert all(pl.pairs[-1] == ("X", 0) for pl in t_out.places)


def test_repl_share_all_shared_multiplies_arcs():
    base = cycle_net()
    out = repl_share(base, 3, "X", base.places(), {LOAD_TAG, LINE_TAG, ASSEMBLE_TAG, FAULT_TAG})
    assert len(out) == len(base)
    for t_in, t_out in zip(base, out):
        assert t_out.input == Bag({pl: 3 * c for pl, c in t_in.input.items()})
        assert t_out.output == Bag({pl: 3 * c for pl, c in t_in.output.items()})


def test_repl_share_validates_shared_arguments():
    base = cycle_net()
    with pytest.raises(ValueError):
        repl_share(base, 2, "X", {place(("nope", 0))}, ())
    with pytest.raises(ValueError):
        repl_share(base, 2, "X", (), {TransitionTag("nope", 0, 1.0)})
    with pytest.raises(ValueError):
        repl_share(base, 0, "X")


def test_npl_nesting_example_place():
    net = npl_net(2, 2)
    assert place(("w", 0), ("L", 1), ("PL", 1)) in net.place_set
    # the fault trigger is per PL once the outer level is added
    fts = by_tag(net, "ft")
    assert len(fts) == 4
    assert {t.input.elements()[0] for t in fts} == {
        place(("o", 0), ("PL", 0)),
        place(("o", 0), ("PL", 1)),
    }


def test_join_identity_and_commutativity():
    a = System(pl_net(2), Bag({S: 1}))
    empty = System(Net(), Bag())
    assert join(a, empty) == a
    b = System(Net((Transition(Bag({S: 1}), Bag({S: 1}), Bag(), TransitionTag("x")),)), Bag())
    assert join(a, b) == join(b, a)


def test_detach_inverts_join():
    a = pl_net(2)
    extra = Net((Transition(Bag({S: 1}), Bag({S: 1}), Bag(), TransitionTag("x")),))
    both = join(System(a, Bag()), System(extra, Bag())).net
    assert detach(both, extra) == a
    assert detach(a, a) == Net()
    assert detach(a, Net()) == a


def test_detach_missing_transition():
    with pytest.raises(DetachError):
        detach(Net(), pl_net(2))


def test_detach_nominal_component():
    net = npl_net(2, 2)
    pl0 = subnet_by_pair(net, ("PL", 0))
    rest = detach(net, pl0)
    assert len(pl0) == 6 and len(rest) == 6
    assert all(("PL", 1) in pl.pairs or pl == S for t in rest for pl in t.places)


def test_set_mark_production_system():
    s = set_mark(npl_net(2, 2), ("o", "PL"), 1)
    assert s.marking == Bag({place(("o", 0), ("PL", 0)): 1, place(("o", 0), ("PL", 1)): 1})
    s = set_mark(s, ("s",), 4)
    assert s.marking[S] == 4
    s = set_mark(s, ("o", "PL"), 0)
    assert s.marking == Bag({S: 4})


def test_set_mark_overwrites_and_validates():
    s = set_mark(npl_net(1, 2), ("s",), 2)
    s = set_mark(s, ("s",), 5)
    assert s.marking[S] == 5
    with pytest.raises(ValueError):
        set_mark(s, ("nothing",), 1)


def test_match_tag():
    m = Bag({place(("w", 0), ("L", 1), ("PL", 0)): 1, place(("a", 0), ("L", 0), ("PL", 0)): 1})
    assert match_tag(m, "w") == Bag({place(("w", 0), ("L", 1), ("PL", 0)): 1})
    assert match_tag(Bag(), "w") == Bag()
    assert match_tag(m, "zz") == Bag()


def test_subag():
    m1 = Bag(
        {
            place(("o", 0), ("PL", 0)): 1,
            place(("o", 0), ("PL", 1)): 1,
            place(("w", 0), ("L", 0), ("PL", 1)): 1,
            place(("w", 0), ("L", 1), ("PL", 1)): 1,
        }
    )
    sub = subag(m1, ("PL", 1))
    assert sub == Bag(
        {
            place(("o", 0), ("PL", 1)): 1,
            place(("w", 0), ("L", 0), ("PL", 1)): 1,
            place(("w", 0), ("L", 1), ("PL", 1)): 1,
        }
    )
    assert sub <= m1
    assert subag(Bag(), ("PL", 1)) == Bag()


def test_min_index_not_in():
    net = npl_net(2, 2)
    assert min_index_not_in(net, "fPL") == 0
    assert min_index_not_in(net, "PL") == 2
    gappy = Net(
        (Transition(Bag({place(("x", 0), ("fPL", 1)): 1}), Bag(), Bag(), TransitionTag("t")),)
    )
    assert min_index_not_in(gappy, "fPL") == 0


def test_subnet_by_pair():
    net = npl_net(2, 2)
    pl0 = subnet_by_pair(net, ("PL", 0))
    assert sorted(t.tag.tag for t in pl0) == ["as", "ft", "ft", "ld", "ln", "ln"]
    assert len(subnet_by_pair(net, ("PL", 9))) == 0
