import argparse
import random

import pytest

from rwspn import (
    Bag,
    System,
    absorbing_predicate,
    build_npl_sys,
    dead,
    faulty_pl,
    faulty_sys,
    fire,
    join,
    match_tag,
    nom_pl,
    npl_net,
    place,
    production_rules,
    rule_app,
    set_mark,
)

from rwspn.cli import _rules_for

from conftest import quotient_ts

S = place(("s", 0))


def test_initial_marking():
    s = build_npl_sys(2, 2, 2)
    assert s.marking[S] == 4
    assert s.marking[place(("o", 0), ("PL", 0))] == 1
    assert s.marking[place(("o", 0), ("PL", 1))] == 1
    assert s.marking.size == 6


def test_nested_place_exists():
    assert place(("w", 0), ("L", 1), ("PL", 1)) in npl_net(2, 2).place_set


def test_faulty_sys_structure():
    d = faulty_sys(0)
    assert d.marking == Bag({place(("o", 0), ("fPL", 0)): 1})
    by_tag = {t.tag.tag: t for t in d.net}
    assert by_tag["ld"].input == Bag({S: 2})
    assert by_tag["ld"].output == Bag({place(("w", 0), ("fPL", 0)): 2})
    assert by_tag["as"].input == Bag({place(("a", 0), ("fPL", 0)): 2})
    assert by_tag["as"].output == Bag({S: 2})
    assert by_tag["ln"].inhibitor == Bag({place(("f", 0), ("fPL", 0)): 1})
    # the degraded line is an order of magnitude slower than a nominal one
    assert by_tag["ln"].tag.rate == 0.01
    assert by_tag["ft"].tag.rate == 0.001


def test_faulty_line_dead_once_faulted():
    d = faulty_sys(0)
    m = d.marking + Bag({place(("w", 0), ("fPL", 0)): 1, place(("f", 0), ("fPL", 0)): 1})
    ln = next(t for t in d.net if t.tag.tag == "ln")
    from rwspn import has_concession

    assert not has_concession(ln, m)


def test_set_mark_on_degraded():
    d = set_mark(faulty_sys(0), ("w", "fPL"), 2)
    assert d.marking[place(("w", 0), ("fPL", 0))] == 2


def test_nom_pl_and_faulty_pl():
    net = npl_net(2, 2)
    assert sorted(t.tag.tag for t in nom_pl(net, 0)) == ["as", "ft", "ft", "ld", "ln", "ln"]
    with pytest.raises(ValueError):
        faulty_pl(net, 0)
    from rwspn import detach

    rest = detach(net, nom_pl(net, 1))
    assert not any(("PL", 1) in pl.pairs for pl in rest.places())


def test_r2_returns_leftovers_to_warehouse():
    _, r2 = production_rules()
    # two degraded PLs; PL "fPL 0" faulted with 3 leftover items, warehouse at 1
    both = join(faulty_sys(0), faulty_sys(1))
    marking = Bag(
        {
            place(("f", 0), ("fPL", 0)): 1,
            place(("w", 0), ("fPL", 0)): 2,
            place(("a", 0), ("fPL", 0)): 1,
            S: 1,
            place(("o", 0), ("fPL", 1)): 1,
        }
    )
    s = System(both.net, marking)
    apps = rule_app(r2, s)
    assert len(apps) == 1
    _, raw = apps[0]
    assert raw.marking[S] == 4
    assert raw.marking == Bag({S: 4, place(("o", 0), ("fPL", 1)): 1})
    assert not any(("fPL", 0) in pl.pairs for pl in raw.net.places())


def test_r2_never_removes_last_component():
    _, r2 = production_rules()
    d = faulty_sys(0)
    marking = Bag({place(("f", 0), ("fPL", 0)): 1, place(("w", 0), ("fPL", 0)): 4})
    s = System(d.net, marking)
    assert dead(faulty_pl(s.net, 0), s.marking)
    assert rule_app(r2, s) == ()


def test_r2_requires_dead_component():
    _, r2 = production_rules()
    both = join(faulty_sys(0), faulty_sys(1))
    # line still has work and no fault marking it dead: w > 0, f unmarked
    marking = Bag(
        {
            place(("f", 0), ("fPL", 1)): 1,
            place(("w", 0), ("fPL", 1)): 1,
            place(("w", 0), ("fPL", 0)): 1,
        }
    )
    # the faulted component 1 is dead (w=1 but f marked, s=0) -> one match;
    # component 0 has no fault token -> no match
    s = System(both.net, marking)
    matches = [m for m, _ in rule_app(r2, s)]
    assert matches == [(place(("f", 0), ("fPL", 1)), 1)]


def test_r1_ignores_running_component():
    r1, _ = production_rules()
    s = build_npl_sys(1, 2, 2)
    # fault PL 0 but leave the warehouse stocked: the loader keeps it alive
    m = s.marking - Bag({place(("o", 0), ("PL", 0)): 1}) + Bag({place(("f", 0), ("L", 0), ("PL", 0)): 1})
    assert rule_app(r1, System(s.net, m)) == ()


def test_absorbing_predicate():
    pred = absorbing_predicate(2)
    ts = quotient_ts(2)
    finals = ts.final_states()
    assert len(finals) == 2
    for i in finals:
        assert pred(ts.states[i])
    assert not pred(ts.states[0])
    two_pls = build_npl_sys(2, 2, 2)
    assert not pred(two_pls)


def test_material_conservation_across_exploration():
    for n in (1, 2):
        ts = quotient_ts(n)
        for s in ts.states:
            held = match_tag(s.marking, "w").size + match_tag(s.marking, "a").size
            assert held + s.marking[S] == 4


def test_fault_monotonicity_under_firing():
    rng = random.Random(4)
    ts = quotient_ts(2)
    from rwspn import enabled_instances

    for s in rng.sample(ts.states, 60):
        before = match_tag(s.marking, "f").size
        for t in enabled_instances(s):
            after = match_tag(fire(t, s.marking), "f").size
            assert after >= before


def test_rules_require_two_branches(capsys):
    # the rules take no k; at any other k the CLI explores firing only
    with pytest.raises(TypeError):
        production_rules(3)
    assert _rules_for(argparse.Namespace(k=3)) == ()
    assert "exploring firing only" in capsys.readouterr().err
    assert [r.tag for r in _rules_for(argparse.Namespace(k=2))] == ["r1", "r2"]
