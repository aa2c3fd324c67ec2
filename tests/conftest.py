"""Shared helpers: cached explorations, small chains and random-marking
generators."""

from __future__ import annotations

import random
from functools import lru_cache

from hypothesis import settings

from rwspn import (
    Bag,
    Net,
    System,
    Transition,
    TransitionTag,
    build_npl_sys,
    explore,
    place,
    production_rules,
)
from rwspn.rewrite import RewriteRule, compile_site

# property tests draw the same examples on every run and write no database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@lru_cache(maxsize=None)
def quotient_ts(n: int, k: int = 2, m: int = 2):
    return explore(build_npl_sys(n, k, m), production_rules(), mode="quotient")


@lru_cache(maxsize=None)
def ordinary_ts(n: int, k: int = 2, m: int = 2):
    return explore(build_npl_sys(n, k, m), production_rules(), mode="ordinary")


def equal_tag_firing_and_rule() -> tuple[System, RewriteRule]:
    """A token on a; transition "x" (rate 2.0) and rule "x" (rate 0.5)
    both move it to b, so their edges share a label and a target."""
    a, b = place(("a", 0)), place(("b", 0))
    net = Net((Transition(Bag({a: 1}), Bag({b: 1}), Bag(), TransitionTag("x", rate=2.0)),))
    # rule "x" takes the token on a, drops every other token and marks b
    rule = RewriteRule(
        "x",
        0.5,
        sites=lambda n: [
            compile_site(n, (0,), Bag({a: 1}), Net(), System(n, Bag({b: 1})), lambda pl: None)
        ],
    )
    return System(net, Bag({a: 1})), rule


def chain(*edges):
    """The transition system of one token moving between the places
    s0, s1, ...: one transition per (src, dst, label, rate) edge, explored
    from a token on s0.  Every state must be reachable from state 0, and
    the explored numbering must be the given one."""
    at = [place(("s", i)) for i in range(1 + max(max(s, d) for s, d, _, _ in edges))]
    net = Net(
        Transition(Bag({at[s]: 1}), Bag({at[d]: 1}), Bag(), TransitionTag(label, 0, rate))
        for s, d, label, rate in edges
    )
    ts = explore(System(net, Bag({at[0]: 1})), mode="ordinary")
    assert ts.edges == sorted(edges)
    return ts


def random_marking(net, rng: random.Random, max_count: int = 3) -> Bag:
    places = net.places()
    chosen = rng.sample(places, rng.randint(0, len(places)))
    return Bag({pl: rng.randint(1, max_count) for pl in chosen})


def random_system(net, rng: random.Random) -> System:
    return System(net, random_marking(net, rng))
