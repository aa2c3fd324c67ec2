import math
import random

import numpy as np
import pytest

from rwspn import (
    Bag,
    InjectivityError,
    Net,
    RewriteRule,
    System,
    Transition,
    TransitionTag,
    all_rewrites,
    apply_assignment,
    build_npl_sys,
    compile_site,
    explore,
    faulty_sys,
    fire_agg,
    join,
    normalize,
    place,
    production_rules,
    random_admissible_assignment,
    rule_app,
    to_augmented,
)

from rwspn.rewrite import expand

from conftest import equal_tag_firing_and_rule, quotient_ts


def faulted_deadlocked_pair():
    """Net of two production lines; line 0 of PL 1 faulted, PL 1 drained."""
    net = build_npl_sys(2, 2, 2).net
    marking = Bag(
        {
            place(("o", 0), ("PL", 0)): 1,
            place(("f", 0), ("L", 0), ("PL", 1)): 1,
            place(("a", 0), ("L", 0), ("PL", 1)): 1,
        }
    )
    return System(net, marking)


def test_rule_app_no_match():
    r1, r2 = production_rules()
    s = build_npl_sys(2, 2, 2)
    assert rule_app(r1, s) == ()
    assert rule_app(r2, s) == ()


def test_r1_single_match_hand_result():
    r1, _ = production_rules()
    s = faulted_deadlocked_pair()
    apps = rule_app(r1, s)
    assert len(apps) == 1
    (match, raw), = apps
    assert match == (place(("f", 0), ("L", 0), ("PL", 1)), 1)
    # remnant keeps PL 0 untouched; fresh degraded PL picks up the leftover
    # processed item, the fault token vanishes
    fresh = faulty_sys(0)
    assert raw.net == join(System(nom_pl_net(s.net, 0)), fresh).net
    assert raw.marking == Bag(
        {
            place(("o", 0), ("PL", 0)): 1,
            place(("o", 0), ("fPL", 0)): 1,
            place(("a", 0), ("fPL", 0)): 1,
        }
    )


def nom_pl_net(net, i):
    from rwspn import nom_pl

    return nom_pl(net, i)


def test_r1_does_not_transfer_fault_token():
    r1, _ = production_rules()
    s = faulted_deadlocked_pair()
    _, raw = rule_app(r1, s)[0]
    assert not any(pl.pairs[0][0] == "f" for pl in raw.marking.elements())


def test_rule_exe_single_match_rate():
    r1, _ = production_rules()
    s = faulted_deadlocked_pair()
    targets = all_rewrites(s, (r1,))
    assert len(targets) == 1
    ((target, per_rule),) = targets.items()
    assert per_rule == {"r1": r1.rate} and r1.rate == 0.005
    assert target == normalize(rule_app(r1, s)[0][1])


def test_rule_exe_aggregates_symmetric_matches():
    # both lines of both PLs drained identically: two matches, one class
    r1, _ = production_rules()
    net = build_npl_sys(2, 2, 2).net
    marking = Bag(
        {
            place(("f", 0), ("L", 0), ("PL", 0)): 1,
            place(("a", 0), ("L", 0), ("PL", 0)): 1,
            place(("f", 0), ("L", 0), ("PL", 1)): 1,
            place(("a", 0), ("L", 0), ("PL", 1)): 1,
        }
    )
    s = System(net, marking)
    apps = rule_app(r1, s)
    assert len(apps) == 2
    targets = all_rewrites(s, (r1,))
    assert len(targets) == 1
    assert list(targets.values()) == [{"r1": pytest.approx(2 * 0.005)}]


def test_rule_rates():
    r1, r2 = production_rules()
    assert (r1.tag, r1.rate) == ("r1", 0.005)
    assert (r2.tag, r2.rate) == ("r2", 0.01)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
def test_rule_rate_must_be_positive_and_finite(rate):
    with pytest.raises(ValueError, match="rule rate must be positive"):
        RewriteRule("r", rate, sites=lambda net: ())


def colliding_rule() -> tuple[System, RewriteRule]:
    """A one-place system and a rule with two sites that need nothing and
    both mark the place twice."""
    sink = place(("x", 0))
    net = Net((Transition(Bag({sink: 1}), Bag({sink: 1}), Bag(), TransitionTag("t")),))
    bad = RewriteRule(
        "bad",
        1.0,
        sites=lambda n: [
            compile_site(n, (m,), Bag(), Net(), System(n, Bag({sink: 2})), lambda pl: None)
            for m in (0, 1)
        ],
    )
    return System(net, Bag({sink: 1})), bad


def test_injectivity_violation_detected():
    system, bad = colliding_rule()
    with pytest.raises(InjectivityError):
        rule_app(bad, system)


@pytest.mark.parametrize("mode", ["quotient", "ordinary"])
def test_explore_raises_the_injectivity_error(mode):
    system, bad = colliding_rule()
    with pytest.raises(InjectivityError) as direct:
        rule_app(bad, system)
    with pytest.raises(InjectivityError) as explored:
        explore(system, (bad,), mode=mode)
    assert str(explored.value) == str(direct.value) == "rule 'bad': matches (0,) and (1,) collide"
    assert explored.value.matches == direct.value.matches == ((0,), (1,))


def test_batch_collisions_are_per_row():
    # site 0 consumes p, site 1 consumes q, and both leave the same marking:
    # two rows that each match one site do not collide, a row that matches
    # both does
    p, q = place(("p", 0)), place(("q", 0))
    net = Net((Transition(Bag({p: 1}), Bag({q: 1}), Bag(), TransitionTag("t")),))
    rule = RewriteRule(
        "pq",
        1.0,
        sites=lambda n: [
            compile_site(n, (pl,), Bag({pl: 1}), Net(), System(n, Bag({q: 3})), lambda _pl: None)
            for pl in (p, q)
        ],
    )
    block = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
    steps, failures = expand(net, block, (rule,))
    assert [row for row, _error in failures] == [2]
    assert str(failures[0][1]) == f"rule 'pq': matches {(p,)!r} and {(q,)!r} collide"
    assert [list(rows) for rows, *_ in steps[1:]] == [[0, 2], [1, 2]]
    steps, failures = expand(net, block[:2], (rule,))
    assert failures == []


def test_fire_agg_initial_aggregation():
    s = normalize(build_npl_sys(2, 2, 2))
    agg = fire_agg(s)
    by_tag = {}
    for per_tag in agg.values():
        for tag, rate in per_tag.items():
            assert tag not in by_tag
            by_tag[tag] = rate
    assert by_tag == {"ld": 0.5 + 0.5, "ft": 0.001 + 0.001 + 0.001 + 0.001}
    assert len(agg) == 2


def test_fire_agg_deadlocked_empty():
    ts = quotient_ts(1)
    final = ts.states[ts.final_states()[0]]
    assert fire_agg(final) == {}
    aug = to_augmented(final, production_rules())
    assert total_rate(aug.firing_targets) + total_rate(aug.rewrite_targets) == 0.0


def test_fire_agg_single_transition():
    w, a = place(("w", 0)), place(("a", 0))
    t = Transition(Bag({w: 1}), Bag({a: 1}), Bag(), TransitionTag("t", 0, 2.5))
    s = System(Net((t,)), Bag({w: 1}))
    assert fire_agg(s) == {Bag({a: 1}): {"t": 2.5}}


def test_to_augmented_initial():
    rules = production_rules()
    s = normalize(build_npl_sys(2, 2, 2))
    aug = to_augmented(s, rules)
    assert aug.rewrite_targets == {}
    assert len(aug.firing_targets) == 2
    total = total_rate(aug.firing_targets) + total_rate(aug.rewrite_targets)
    assert total == pytest.approx(1.0 + 0.004)


def total_rate(targets: dict) -> float:
    return sum(r for per in targets.values() for r in per.values())


def equal_tag_model():
    system, rule = equal_tag_firing_and_rule()
    return explore(system, (rule,)), (rule,)


# the case study by its quotient N, and a net whose firing and rule merge
PER_STATE_MODELS = {
    "1": lambda: (quotient_ts(1), production_rules()),
    "2": lambda: (quotient_ts(2), production_rules()),
    "equal-tag firing and rule": equal_tag_model,
}


@pytest.mark.parametrize("model", PER_STATE_MODELS)
def test_to_augmented_agrees_with_explore(model):
    # the augmented form of every quotient state gives exactly its out-edges
    ts, rules = PER_STATE_MODELS[model]()
    index = {s: i for i, s in enumerate(ts.states)}
    out_edges = [{} for _ in ts.states]
    for src, dst, label, rate in ts.edges:
        out_edges[src][(dst, label)] = rate
    for i, s in enumerate(ts.states):
        aug = to_augmented(s, rules)
        expected = {}
        targets = [(System(s.net, m), per) for m, per in aug.firing_targets.items()]
        for target, per in targets + list(aug.rewrite_targets.items()):
            for label, rate in per.items():
                key = (index[target], label)
                expected[key] = expected.get(key, 0.0) + rate
        assert out_edges[i] == expected


def test_per_state_functions_keep_firing_and_rule_apart():
    # explore merges firing "x" (2.0) and rule "x" (0.5) into one 2.5 edge
    system, rule = equal_tag_firing_and_rule()
    b = place(("b", 0))
    assert fire_agg(system) == {Bag({b: 1}): {"x": 2.0}}
    assert all_rewrites(system, (rule,)) == {System(system.net, Bag({b: 1})): {"x": 0.5}}
    aug = to_augmented(system, (rule,))
    assert aug.firing_targets == {Bag({b: 1}): {"x": 2.0}}
    assert aug.rewrite_targets == {System(system.net, Bag({b: 1})): {"x": 0.5}}


def absent_place_rule() -> tuple[System, RewriteRule]:
    """A token on a, and a rule that keeps every token on its place, in a
    net that has no place a."""
    a, b = place(("a", 0)), place(("b", 0))
    net = Net((Transition(Bag({a: 1}), Bag({b: 1}), Bag(), TransitionTag("t")),))
    only_b = System(Net((Transition(Bag({b: 1}), Bag({b: 1}), Bag(), TransitionTag("u")),)))
    keep = RewriteRule(
        "keep",
        1.0,
        sites=lambda n: [compile_site(n, (), Bag(), Net(), only_b, lambda pl: pl)],
    )
    return System(net, Bag({a: 1})), keep


FAILING_RULES = {"injectivity": colliding_rule, "absent place": absent_place_rule}


@pytest.mark.parametrize("mode", ["quotient", "ordinary"])
@pytest.mark.parametrize("case", FAILING_RULES)
def test_per_state_functions_raise_what_explore_raises(case, mode):
    system, rule = FAILING_RULES[case]()
    with pytest.raises((InjectivityError, ValueError)) as explored:
        explore(system, (rule,), mode=mode)
    calls = {
        "to_augmented": lambda: to_augmented(system, (rule,)),
        "all_rewrites": lambda: all_rewrites(system, (rule,)),
        "rule_app": lambda: rule_app(rule, system),
    }
    for name, call in calls.items():
        with pytest.raises(Exception) as direct:
            call()
        assert type(direct.value) is type(explored.value), name
        assert str(direct.value) == str(explored.value), name


def test_match_count_consistency():
    rules = production_rules()
    ts = quotient_ts(2)
    for s in ts.states:
        for rule in rules:
            matches = len(rule_app(rule, s))
            classes = all_rewrites(s, (rule,))
            back = sum(per[rule.tag] / rule.rate for per in classes.values())
            assert round(back) == matches


def test_congruence_under_admissible_permutations():
    rules = production_rules()
    ts = quotient_ts(2)
    rng = random.Random(13)
    for s in rng.sample(ts.states, 25):
        base = to_augmented(s, rules)
        base_f = {m: dict(per) for m, per in base.firing_targets.items()}
        base_r = {t: dict(per) for t, per in base.rewrite_targets.items()}
        for _ in range(4):
            phi = random_admissible_assignment(s, rng)
            moved = apply_assignment(s, phi)
            aug = to_augmented(normalize(moved), rules)
            assert {m: dict(per) for m, per in aug.firing_targets.items()} == base_f
            assert {t: dict(per) for t, per in aug.rewrite_targets.items()} == base_r
