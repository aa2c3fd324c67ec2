"""Oracle for the compiled reconfiguration rules.

The matchers and appliers below are the object-level form of r1 and r2:
they walk the marking, test deadness with ``dead`` and build the result
with ``detach``, ``join`` and ``set_mark`` on every match.  ``rule_app``
over the compiled sites must give the same matches in the same order and
the same raw systems.
"""

import pytest

from rwspn import (
    Bag,
    BudgetExceededError,
    Net,
    RewriteRule,
    System,
    Transition,
    TransitionTag,
    compile_site,
    dead,
    explore,
    detach,
    faulty_pl,
    faulty_sys,
    join,
    match_tag,
    min_index_not_in,
    nom_pl,
    place,
    production_rules,
    rule_app,
    set_mark,
    subag,
    subnet_by_pair,
)

from rwspn import rewrite
from rwspn.rewrite import _successors, expand

from conftest import ordinary_ts, quotient_ts

S = place(("s", 0))


def r1_matches(system):
    net, marking = system.net, system.marking
    out = []
    for pl in marking.elements():
        pairs = pl.pairs
        if pairs[0][0] == "f" and pairs[-1][0] == "PL":
            i = pairs[-1][1]
            if dead(subnet_by_pair(net, ("PL", i)), marking):
                out.append((pl, i))
    return out


def r1_apply(system, match):
    f_token, i = match
    rest = system.marking - Bag({f_token: 1})
    component = subag(rest, ("PL", i))
    remnant = System(detach(system.net, nom_pl(system.net, i)), rest - component)
    fresh = faulty_sys(min_index_not_in(system.net, "fPL"))
    degraded = set_mark(fresh, ("w", "fPL"), match_tag(component, "w").size)
    degraded = set_mark(degraded, ("a", "fPL"), match_tag(component, "a").size)
    return join(remnant, degraded)


def r2_matches(system):
    net, marking = system.net, system.marking
    out = []
    for pl in marking.elements():
        pairs = pl.pairs
        if pairs[0][0] == "f" and pairs[-1][0] == "fPL":
            i = pairs[-1][1]
            sub = subnet_by_pair(net, ("fPL", i))
            if len(detach(net, sub)) and dead(sub, marking):
                out.append((pl, i))
    return out


def r2_apply(system, match):
    f_token, i = match
    rest = system.marking - Bag({f_token: 1})
    component = subag(rest, ("fPL", i))
    remnant_net = detach(system.net, faulty_pl(system.net, i))
    marking = (rest - component).with_count(S, system.marking[S] + component.size)
    return System(remnant_net, marking)


@pytest.mark.parametrize(
    "explored,n", [(ordinary_ts, 2), (quotient_ts, 3)], ids=["ordinary-2", "quotient-3"]
)
def test_compiled_rules_match_object_level_rules(explored, n):
    r1, r2 = production_rules()
    applied = {"r1": 0, "r2": 0}
    for s in explored(n).states:
        for rule, matches, apply in ((r1, r1_matches, r1_apply), (r2, r2_matches, r2_apply)):
            expected = tuple((m, apply(s, m)) for m in matches(s))
            # System equality is net identity plus marking equality
            assert rule_app(rule, s) == expected
            applied[rule.tag] += len(expected)
    assert min(applied.values()) > 0


def keep_rule(target: Net) -> RewriteRule:
    """A rule with one site that needs nothing and leaves every token on
    its place, in the net ``target``."""
    return RewriteRule(
        "keep",
        1.0,
        sites=lambda n: [compile_site(n, (), Bag(), Net(), System(target), lambda pl: pl)],
    )


def test_token_on_a_place_absent_from_the_target_raises():
    a, b = place(("a", 0)), place(("b", 0))
    net = Net((Transition(Bag({a: 1}), Bag({b: 1}), Bag(), TransitionTag("t")),))
    only_b = Net((Transition(Bag({b: 1}), Bag({b: 1}), Bag(), TransitionTag("u")),))
    # every token stays on its place, but the target net has no place a
    keep = keep_rule(only_b)
    assert rule_app(keep, System(net, Bag({b: 1})))[0][1] == System(only_b, Bag({b: 1}))
    with pytest.raises(ValueError, match="absent from the target"):
        rule_app(keep, System(net, Bag({a: 1})))


@pytest.mark.parametrize("mode", ["quotient", "ordinary"])
def test_explore_raises_the_absent_place_error(mode):
    a, b = place(("a", 0)), place(("b", 0))
    net = Net((Transition(Bag({a: 1}), Bag({b: 1}), Bag(), TransitionTag("t")),))
    only_b = Net((Transition(Bag({b: 1}), Bag({b: 1}), Bag(), TransitionTag("u")),))
    keep, system = keep_rule(only_b), System(net, Bag({a: 1}))
    with pytest.raises(ValueError) as direct:
        rule_app(keep, system)
    with pytest.raises(ValueError) as explored:
        explore(system, (keep,), mode=mode)
    assert str(explored.value) == str(direct.value) == (
        "result marks a place absent from the target net (source place 0)"
    )


@pytest.mark.parametrize("mode", ["quotient", "ordinary"])
@pytest.mark.parametrize("k, first", [(1, 1), (2, 2)])
def test_explore_raises_for_the_first_failing_state_in_the_numbering(mode, k, first):
    # s fires to k tokens on t or to one on u; both states fail the rule,
    # each naming its own place, and "1 . u" sorts before "2 . t"
    s, t, u = (place((tag, 0)) for tag in "stu")
    net = Net((
        Transition(Bag({s: 1}), Bag({t: k}), Bag(), TransitionTag("a")),
        Transition(Bag({s: 1}), Bag({u: 1}), Bag(), TransitionTag("b")),
    ))
    only_s = Net((Transition(Bag({s: 1}), Bag({s: 1}), Bag(), TransitionTag("c")),))
    with pytest.raises(ValueError) as err:
        explore(System(net, Bag({s: 1})), (keep_rule(only_s),), mode=mode)
    assert str(err.value) == (
        f"result marks a place absent from the target net (source place {first})"
    )


def test_successors_raises_for_the_least_failing_position_over_all_nets():
    # the net of position 0 also holds the failing position 2, but the
    # other net's failing position 1 comes first
    s, t, u = (place((tag, 0)) for tag in "stu")
    first = Net((Transition(Bag({s: 1}), Bag({t: 1}), Bag(), TransitionTag("a")),))
    second = Net((Transition(Bag({u: 1}), Bag({u: 1}), Bag(), TransitionTag("b")),))
    only_s = Net((Transition(Bag({s: 1}), Bag({s: 1}), Bag(), TransitionTag("c")),))
    states = [System(first, Bag({s: 1})), System(second, Bag({u: 1})), System(first, Bag({t: 1}))]
    for quotient in (True, False):
        with pytest.raises(ValueError) as err:
            _successors([x._state() for x in states], (keep_rule(only_s),), quotient)
        # u is place 0 of the second net; t is place 1 of the first
        assert str(err.value) == "result marks a place absent from the target net (source place 0)"


@pytest.mark.parametrize("mode", ["quotient", "ordinary"])
def test_explore_expands_no_net_group_past_the_first_failure(mode, monkeypatch):
    # level 1 holds (a, 1 . t), which fails the rule (the target net has no
    # place t), and then (b, 1 . s): a's net renders first, since "t" < "u"
    s, t, u = (place((tag, 0)) for tag in "stu")
    net_a = Net((Transition(Bag({s: 1}), Bag({t: 1}), Bag(), TransitionTag("a")),))
    net_b = Net((Transition(Bag({s: 1}), Bag({u: 1}), Bag(), TransitionTag("b")),))
    calls = []

    def counted(net, block, rules):
        calls.append(net)
        return expand(net, block, rules)

    monkeypatch.setattr(rewrite, "expand", counted)
    with pytest.raises(ValueError) as err:
        explore(System(net_a, Bag({s: 1})), (keep_rule(net_b),), mode=mode)
    assert str(err.value) == "result marks a place absent from the target net (source place 1)"
    assert calls == [net_a, net_a]  # level 0, then level 1's failing group alone


@pytest.mark.parametrize("mode", ["quotient", "ordinary"])
def test_a_rule_error_wins_over_the_budget_in_the_same_level(mode):
    # s fires to two new states, one more than the budget holds, and the
    # rule fails on s itself: its target net has no place s
    s, t, u = (place((tag, 0)) for tag in "stu")
    net = Net((
        Transition(Bag({s: 1}), Bag({t: 1}), Bag(), TransitionTag("a")),
        Transition(Bag({s: 1}), Bag({u: 1}), Bag(), TransitionTag("b")),
    ))
    only_t = Net((Transition(Bag({t: 1}), Bag({t: 1}), Bag(), TransitionTag("c")),))
    system = System(net, Bag({s: 1}))
    with pytest.raises(BudgetExceededError):
        explore(system, mode=mode, max_states=1)
    with pytest.raises(ValueError) as err:
        explore(system, (keep_rule(only_t),), mode=mode, max_states=1)
    assert str(err.value) == "result marks a place absent from the target net (source place 0)"
