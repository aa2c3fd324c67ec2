"""Rewrite rules compiled per net, match enumeration, and the one successor
function: firing and rewrite rates aggregated into (normalized) target
states."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .bag import Bag
from .canon import normalize_vector
from .net import Net, Place, System, _TAG_RE

# Opaque rule-specific binding record; two matches are equal iff their
# bindings are equal.
Match = tuple


class InjectivityError(RuntimeError):
    """Two distinct matches of one rule produced the same raw result."""

    def __init__(self, tag: str, first: Match, second: Match):
        super().__init__(f"rule {tag!r}: matches {first!r} and {second!r} collide")
        self.tag = tag
        self.matches = (first, second)


class RuleSite(NamedTuple):
    """One match of a rule on a net, compiled to index arithmetic.

    ``need``, ``dead`` and the positions of ``moves`` index the compiled
    places of the source net; the entries of ``moves`` and ``fixed`` index
    those of ``target``.  The site matches a marking vector that covers ``need`` and in which no
    ``dead`` transition has concession.  Its raw result is ``fixed`` plus,
    for each source index, the tokens left after taking ``need`` moved to
    ``moves[i]``; ``-1`` drops them, and ``None`` marks a place that is
    absent from the target, where a token raises ``ValueError``.
    """

    match: Match
    need: tuple  # (index, count) pairs that the match consumes
    dead: tuple  # (input pairs, inhibitor pairs) per transition
    target: Net
    moves: tuple
    fixed: tuple

    def apply(self, vec: tuple) -> tuple:
        """The raw target vector of a marking vector that this site matches."""
        rest = list(vec)
        for i, c in self.need:
            rest[i] -= c
        out = list(self.fixed)
        for i, (c, j) in enumerate(zip(rest, self.moves)):
            if c and j != -1:
                if j is None:
                    raise ValueError(f"result marks a place absent from the target net "
                                     f"(source place {i})")
                out[j] += c
        return tuple(out)


def compile_site(
    net: Net,
    match: Match,
    need: Bag,
    dead: Net,
    target: System,
    dest: Callable[[Place], Place | None],
) -> RuleSite:
    """The site of a match on ``net``: the match consumes ``need`` and
    requires every transition of ``dead`` (a subnet) to lack concession;
    the result is the net of ``target``, marked by ``target``'s marking
    plus each remaining token of a place ``pl`` moved to ``dest(pl)``
    (``None`` drops it; a place absent from the target raises
    ``ValueError`` when a token is moved there)."""
    cnet, tnet = net.compiled(), target.net.compiled()
    subnet = set(dead.transitions)
    moves = []
    for pl in cnet.places:
        to = dest(pl)
        moves.append(-1 if to is None else tnet.index.get(to))
    return RuleSite(
        match,
        tuple((cnet.index[pl], c) for pl, c in need.items()),
        tuple((inp, inh) for t, inp, inh, _out in cnet.transitions if t in subnet),
        target.net,
        tuple(moves),
        tnet.encode(target.marking),
    )


@dataclass(frozen=True)
class RewriteRule:
    """A net rewrite: label, rate, and the sites where it applies.

    ``sites(net)`` lists the rule's ``RuleSite``s on a net in match order;
    it runs once per net (``rule_sites``).  Sites must be built from
    symmetry-preserving operators so that results keep the symmetric
    labeling.  Results are raw (distinct per match); ``normalize_result``
    marks rules whose right-hand side ends in a normalization step, which
    matters only when states are not normalized anyway, i.e. in
    ordinary-mode exploration.
    """

    tag: str
    rate: float
    sites: Callable[[Net], Sequence[RuleSite]]
    normalize_result: bool = False

    def __post_init__(self):
        if not _TAG_RE.match(self.tag):
            raise ValueError(f"invalid rule tag {self.tag!r}")
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rule rate must be positive and finite, got {self.rate!r}")


def rule_sites(rule: RewriteRule, net: Net) -> tuple[RuleSite, ...]:
    """The rule's sites on ``net``, built on first use and kept with the net."""
    sites = net._cache.get(rule.sites)
    if sites is None:
        sites = net._cache[rule.sites] = tuple(rule.sites(net))
    return sites


State = tuple[Net, tuple]  # a net and a marking vector over its compiled places


def _rule_apps(rule: RewriteRule, net: Net, vec: tuple) -> list[tuple[Match, State]]:
    """(match, raw target state) for every site of the rule that matches.

    Raises InjectivityError if two matches yield the same raw state.
    """
    seen: dict[State, Match] = {}
    out = []
    for site in rule_sites(rule, net):
        for i, c in site.need:
            if vec[i] < c:
                break
        else:
            if any(
                all(vec[i] >= c for i, c in inp) and all(vec[i] < b for i, b in inh)
                for inp, inh in site.dead
            ):
                continue
            raw = (site.target, site.apply(vec))
            if raw in seen:
                raise InjectivityError(rule.tag, seen[raw], site.match)
            seen[raw] = site.match
            out.append((site.match, raw))
    return out


def rule_app(rule: RewriteRule, system: System) -> tuple[tuple[Match, System], ...]:
    """All (match, raw result) pairs of one rule, without normalization.

    Raises InjectivityError if two matches yield the same raw system.
    """
    net = system.net
    apps = _rule_apps(rule, net, net.compiled().encode(system.marking))
    return tuple((match, System.decoded(*raw)) for match, raw in apps)


def _normal(state: State, memo: dict) -> State:
    """``normalize_vector`` of a raw state, looked up in ``memo`` first."""
    nf = memo.get(state)
    if nf is None:
        nf = memo[state] = normalize_vector(*state)
    return nf


def _rule_steps(net: Net, vec: tuple, rules: Sequence[RewriteRule], quotient: bool, memo: dict):
    """((target state, rule tag), rate) for every match, in rule order, then
    match order.  Targets are normalized in quotient mode and, otherwise,
    for rules that normalize their results."""
    for rule in rules:
        normalized = quotient or rule.normalize_result
        for _match, raw in _rule_apps(rule, net, vec):
            yield (_normal(raw, memo) if normalized else raw, rule.tag), rule.rate


def _successors(
    net: Net, vec: tuple, rules: Sequence[RewriteRule], quotient: bool, memo: dict
) -> dict[tuple[State, str], float]:
    """Every successor of a state, as (target state, label) -> rate.

    This is the one code path that expands a state: ``explore`` runs it,
    ``fire_agg`` groups its firing results, and ``all_rewrites`` groups
    the rule steps it adds.  In quotient mode every target is normalized
    (``normalize_vector``), through ``memo``, a dict from raw to normal
    state that the caller owns.  Rules run on the vector, through their
    compiled sites.  Rates of equal (target, label) pairs are summed in
    firing order (net order), then in rule and match order; this also
    merges a firing and a rule result when a transition tag equals a rule
    tag and both reach the same target.
    """
    merged: dict[tuple[State, str], float] = {}
    for t, nxt in net.compiled().successors(vec):
        key = (_normal((net, nxt), memo) if quotient else (net, nxt), t.tag.tag)
        merged[key] = merged.get(key, 0.0) + t.tag.rate
    if rules:
        for key, rate in _rule_steps(net, vec, rules, quotient, memo):
            merged[key] = merged.get(key, 0.0) + rate
    return merged


def fire_agg(system: System) -> dict[Bag, dict[str, float]]:
    """Cumulative firing effect: normalized target marking -> per-tag rates.

    Enabled instances are grouped by the normal form of the marking they
    produce and by tag text; rates of instances in a group are summed in
    net iteration order.
    """
    net = system.net
    merged = _successors(net, net.compiled().encode(system.marking), (), True, {})
    acc: dict[Bag, dict[str, float]] = {}
    # without rules every key is one (target, tag) firing result
    for ((tnet, tvec), tag), rate in merged.items():
        acc.setdefault(tnet.compiled().decode(tvec), {})[tag] = rate
    return acc


def all_rewrites(system: System, rules: Sequence[RewriteRule]) -> dict[System, dict[str, float]]:
    """Bulk rule application: normalized target system -> per-rule rates."""
    vec = system.net.compiled().encode(system.marking)
    acc: dict[System, dict[str, float]] = {}
    for (target, tag), rate in _rule_steps(system.net, vec, rules, True, {}):
        per_rule = acc.setdefault(System.decoded(*target), {})
        per_rule[tag] = per_rule.get(tag, 0.0) + rate
    return acc


@dataclass(frozen=True)
class AugmentedState:
    """A state bundled with its aggregated outgoing transitions.

    ``firing_targets`` maps normalized markings (the net is unchanged by
    firing) to per-tag cumulative rates; ``rewrite_targets`` maps normalized
    systems to per-rule cumulative rates.
    """

    net: Net
    marking: Bag
    firing_targets: dict = field(default_factory=dict)
    rewrite_targets: dict = field(default_factory=dict)


def to_augmented(system: System, rules: Sequence[RewriteRule] = ()) -> AugmentedState:
    """Augmented form of a system already in normal form."""
    return AugmentedState(
        net=system.net,
        marking=system.marking,
        firing_targets=fire_agg(system),
        rewrite_targets=all_rewrites(system, rules),
    )
