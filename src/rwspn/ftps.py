"""Gracefully degrading production system: model generators, the two
reconfiguration rules, and the absorbing-state predicate.

The system is N production lines (PLs) sharing a warehouse of K*M raw
items.  Each PL splits work over K interchangeable branches; a branch
fault degrades the PL to a single slower line, and a second fault removes
it, returning leftover items to the warehouse.  The last PL is never
removed.
"""

from __future__ import annotations

from typing import Callable

from .bag import Bag
from .algebra import (
    detach,
    join,
    match_tag,
    min_index_not_in,
    repl_share,
    set_mark,
    subnet_by_pair,
)
from .net import Net, Place, System, Transition, TransitionTag, place
from .rewrite import RewriteRule, RuleSite, compile_site

LOAD_RATE = 0.5
LINE_RATE = 0.1
ASSEMBLE_RATE = 2.0
FAULT_RATE = 0.001
# a degraded line works an order of magnitude slower
DEGRADED_LINE_RATE = 0.01
RECONFIGURE_RATE = 0.005  # rule r1
REMOVE_RATE = 0.01  # rule r2

LOAD_TAG = TransitionTag("ld", 0, LOAD_RATE)
LINE_TAG = TransitionTag("ln", 0, LINE_RATE)
ASSEMBLE_TAG = TransitionTag("as", 0, ASSEMBLE_RATE)
FAULT_TAG = TransitionTag("ft", 0, FAULT_RATE)

_W = place(("w", 0))
_A = place(("a", 0))
_F = place(("f", 0))
_O = place(("o", 0))
_S = place(("s", 0))


def cycle_net() -> Net:
    """One branch: load, work, assemble, fault."""
    load = Transition(Bag({_S: 1}), Bag({_W: 1}), Bag(), LOAD_TAG)
    line = Transition(Bag({_W: 1}), Bag({_A: 1}), Bag({_F: 1}), LINE_TAG)
    ass = Transition(Bag({_A: 1}), Bag({_S: 1}), Bag(), ASSEMBLE_TAG)
    fault = Transition(Bag({_O: 1}), Bag({_F: 1}), Bag(), FAULT_TAG)
    return Net((load, line, ass, fault))


def pl_net(k: int) -> Net:
    """A production line with k symmetric branches under hierarchy tag "L".

    The warehouse and the fault trigger are shared among branches; load and
    assembly are shared transitions, so the loader takes k items at once and
    the assembler turns k processed items into one artifact.
    """
    return repl_share(cycle_net(), k, "L", {_O, _S}, {ASSEMBLE_TAG, LOAD_TAG})


def npl_net(n: int, k: int) -> Net:
    """n replicas of PL(k) under hierarchy tag "PL", sharing the warehouse."""
    return repl_share(pl_net(k), n, "PL", {_S}, ())


def build_npl_sys(n: int, k: int, m: int) -> System:
    """The initial system: one fault trigger per PL, k*m items in store."""
    return set_mark(set_mark(npl_net(n, k), ("o", "PL"), 1), ("s",), k * m)


def faulty_sys(i: int) -> System:
    """A degraded single-line PL under hierarchy pair ("fPL", i).

    The loader still moves two items per cycle and the assembler still needs
    two processed items per artifact, but the single remaining line runs at
    the degraded rate.  One fresh fault trigger is armed.
    """
    w = place(("w", 0), ("fPL", i))
    a = place(("a", 0), ("fPL", i))
    f = place(("f", 0), ("fPL", i))
    o = place(("o", 0), ("fPL", i))
    net = Net(
        (
            Transition(Bag({_S: 2}), Bag({w: 2}), Bag(), TransitionTag("ld", 0, LOAD_RATE)),
            Transition(Bag({w: 1}), Bag({a: 1}), Bag({f: 1}), TransitionTag("ln", 0, DEGRADED_LINE_RATE)),
            Transition(Bag({a: 2}), Bag({_S: 2}), Bag(), TransitionTag("as", 0, ASSEMBLE_RATE)),
            Transition(Bag({o: 1}), Bag({f: 1}), Bag(), TransitionTag("ft", 0, FAULT_RATE)),
        )
    )
    return System(net, Bag({o: 1}))


def nom_pl(net: Net, i: int) -> Net:
    """The subnet of nominal PL ``i``."""
    sub = subnet_by_pair(net, ("PL", i))
    if not len(sub):
        raise ValueError(f"no nominal PL with index {i}")
    return sub


def faulty_pl(net: Net, i: int) -> Net:
    """The subnet of degraded PL ``i``."""
    sub = subnet_by_pair(net, ("fPL", i))
    if not len(sub):
        raise ValueError(f"no degraded PL with index {i}")
    return sub


def _r1_sites(net: Net) -> list[RuleSite]:
    """One site per fault place of a nominal PL.

    The site consumes the fault token and needs the PL dead.  The result
    detaches the PL and joins a fresh degraded PL under the least unused
    "fPL" index, onto whose line the PL's unprocessed and processed items
    move; the PL's other tokens vanish with it.
    """
    j = min_index_not_in(net, "fPL")
    fresh = faulty_sys(j)
    # the places that the ``set_mark`` patterns ("w", "fPL") and ("a", "fPL") name
    patterns = (("w", "fPL"), ("a", "fPL"))
    into = {q.pairs[0][0]: q for q in fresh.net.places() if q.tags() in patterns}
    sites = []
    for pl in net.places():
        pairs = pl.pairs
        if pairs[0][0] == "f" and pairs[-1][0] == "PL":
            i = pairs[-1][1]
            sub = nom_pl(net, i)
            target = join(System(detach(net, sub)), fresh)

            def dest(q: Place, i=i) -> Place | None:
                return into.get(q.pairs[0][0]) if ("PL", i) in q.pairs else q

            sites.append(compile_site(net, (pl, i), Bag({pl: 1}), sub, target, dest))
    return sites


def rule_r1() -> RewriteRule:
    """Degrade a faulted, deadlocked nominal PL.

    Leftover unprocessed/processed items move onto the fresh degraded PL; the
    fault token vanishes with the removed component.  The rule's result is
    re-canonicalized as part of the rule itself, which shows up in
    ordinary-mode state spaces.
    """
    return RewriteRule("r1", RECONFIGURE_RATE, _r1_sites, normalize_result=True)


def _r2_sites(net: Net) -> list[RuleSite]:
    """One site per fault place of a degraded PL that is not the last
    component: consume the fault token, need the PL dead, detach it and
    return its remaining tokens to the warehouse."""
    sites = []
    for pl in net.places():
        pairs = pl.pairs
        if pairs[0][0] == "f" and pairs[-1][0] == "fPL":
            i = pairs[-1][1]
            sub = faulty_pl(net, i)
            remnant = detach(net, sub)
            if len(remnant):

                def dest(q: Place, i=i) -> Place:
                    return _S if ("fPL", i) in q.pairs else q

                sites.append(compile_site(net, (pl, i), Bag({pl: 1}), sub, System(remnant), dest))
    return sites


def rule_r2() -> RewriteRule:
    """Remove a twice-faulted degraded PL, unless it is the last one.

    Its leftover items are returned to the warehouse.
    """
    return RewriteRule("r2", REMOVE_RATE, _r2_sites)


def production_rules() -> tuple[RewriteRule, ...]:
    """The reconfiguration rules; defined for the two-branch (k = 2)
    scenario only."""
    return (rule_r1(), rule_r2())


def absorbing_predicate(m: int) -> Callable[[System], bool]:
    """True on systems reduced to a single degraded PL holding all 2*m items."""

    def pred(system: System) -> bool:
        fpl = set()
        for pl in system.net.places():
            tags = pl.tags()
            if "PL" in tags:
                return False
            fpl.update(i for t, i in pl.pairs if t == "fPL")
            if "fPL" not in tags and pl != _S:
                return False
        if len(fpl) != 1:
            return False
        mk = system.marking
        return match_tag(mk, "w").size + match_tag(mk, "a").size == 2 * m

    return pred
