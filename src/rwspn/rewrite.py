"""Rewrite rules as first-class values, match enumeration, and the one
successor function: firing and rewrite rates aggregated into (normalized)
target states."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .bag import Bag
from .canon import normalize_vector
from .net import Net, System, _TAG_RE

# Opaque rule-specific binding record; two matches are equal iff their
# bindings are equal.
Match = tuple


class InjectivityError(RuntimeError):
    """Two distinct matches of one rule produced the same raw result."""

    def __init__(self, tag: str, first: Match, second: Match):
        super().__init__(f"rule {tag!r}: matches {first!r} and {second!r} collide")
        self.tag = tag
        self.matches = (first, second)


@dataclass(frozen=True)
class RewriteRule:
    """A net rewrite: label plus native match enumerator and applier.

    Appliers must be pure and built from symmetry-preserving operators so
    that results keep the symmetric labeling.  Appliers return raw systems
    (distinct per match); ``normalize_result`` marks rules whose right-hand
    side ends in a normalization step, which matters only when states are
    not normalized anyway, i.e. in ordinary-mode exploration.
    """

    tag: str
    rate: float
    matcher: Callable[[System], Sequence[Match]]
    applier: Callable[[System, Match], System]
    normalize_result: bool = False

    def __post_init__(self):
        if not _TAG_RE.match(self.tag):
            raise ValueError(f"invalid rule tag {self.tag!r}")
        if not self.rate > 0:
            raise ValueError(f"rule rate must be positive, got {self.rate!r}")


def rule_app(rule: RewriteRule, system: System) -> tuple[tuple[Match, System], ...]:
    """All (match, raw result) pairs of one rule, without normalization.

    Raises InjectivityError if two matches yield the same raw system.
    """
    seen: dict[System, Match] = {}
    out = []
    for match in rule.matcher(system):
        raw = rule.applier(system, match)
        if raw in seen:
            raise InjectivityError(rule.tag, seen[raw], match)
        seen[raw] = match
        out.append((match, raw))
    return tuple(out)


State = tuple[Net, tuple]  # a net and a marking vector over its compiled places


def _rule_steps(system: System, rules: Sequence[RewriteRule], quotient: bool):
    """((target state, rule tag), rate) for every match, in rule order, then
    match order.  Targets are normalized in quotient mode and, otherwise,
    for rules that normalize their results."""
    for rule in rules:
        for _match, raw in rule_app(rule, system):
            target = (raw.net, raw.net.compiled().encode(raw.marking))
            if quotient or rule.normalize_result:
                target = normalize_vector(*target)
            yield (target, rule.tag), rule.rate


def _successors(
    net: Net, vec: tuple, rules: Sequence[RewriteRule], quotient: bool
) -> dict[tuple[State, str], float]:
    """Every successor of a state, as (target state, label) -> rate.

    This is the one code path that expands a state: ``explore`` runs it,
    ``fire_agg`` groups its firing results, and ``all_rewrites`` groups
    the rule steps it adds.  In quotient mode every target is normalized
    (``normalize_vector``).  Rules run on the decoded system.  Rates of
    equal (target, label) pairs are summed in firing order (net order),
    then in rule and match order; this also merges a firing and a rule
    result when a transition tag equals a rule tag and both reach the same
    target.
    """
    merged: dict[tuple[State, str], float] = {}
    for t, nxt in net.compiled().successors(vec):
        key = (normalize_vector(net, nxt) if quotient else (net, nxt), t.tag.tag)
        merged[key] = merged.get(key, 0.0) + t.tag.rate
    if rules:
        for key, rate in _rule_steps(System.decoded(net, vec), rules, quotient):
            merged[key] = merged.get(key, 0.0) + rate
    return merged


def fire_agg(system: System) -> dict[Bag, dict[str, float]]:
    """Cumulative firing effect: normalized target marking -> per-tag rates.

    Enabled instances are grouped by the normal form of the marking they
    produce and by tag text; rates of instances in a group are summed in
    net iteration order.
    """
    net = system.net
    merged = _successors(net, net.compiled().encode(system.marking), (), True)
    acc: dict[Bag, dict[str, float]] = {}
    # without rules every key is one (target, tag) firing result
    for ((tnet, tvec), tag), rate in merged.items():
        acc.setdefault(tnet.compiled().decode(tvec), {})[tag] = rate
    return acc


def all_rewrites(system: System, rules: Sequence[RewriteRule]) -> dict[System, dict[str, float]]:
    """Bulk rule application: normalized target system -> per-rule rates."""
    acc: dict[System, dict[str, float]] = {}
    for (target, tag), rate in _rule_steps(system, rules, True):
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
