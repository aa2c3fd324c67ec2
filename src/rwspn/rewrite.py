"""Rewrite rules as first-class values, match enumeration, and aggregation
of firing/rewrite rates into normalized target classes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .bag import Bag
from .canon import normalize, normalize_vector
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


def rule_exe(rule: RewriteRule, system: System) -> dict[System, float]:
    """Rule results partitioned into normalized classes with aggregate rates.

    Each class's rate is the rule rate times the number of matches landing
    in it.
    """
    acc: dict[System, float] = {}
    for _match, raw in rule_app(rule, system):
        target = normalize(raw)
        acc[target] = acc.get(target, 0.0) + rule.rate
    return acc


def fire_agg(system: System) -> dict[Bag, dict[str, float]]:
    """Cumulative firing effect: normalized target marking -> per-tag rates.

    Enabled instances are grouped by the normal form of the marking they
    produce and by tag text; rates of instances in a group are summed in
    net iteration order.
    """
    acc: dict[Bag, dict[str, float]] = {}
    cnet = system.net.compiled()
    for t, nxt in cnet.successors(cnet.encode(system.marking)):
        net, vec = normalize_vector(system.net, nxt)
        target = net.compiled().decode(vec)
        per_tag = acc.setdefault(target, {})
        per_tag[t.tag.tag] = per_tag.get(t.tag.tag, 0.0) + t.tag.rate
    return acc


def all_rewrites(system: System, rules: Sequence[RewriteRule]) -> dict[System, dict[str, float]]:
    """Bulk rule application: normalized target system -> per-rule rates."""
    acc: dict[System, dict[str, float]] = {}
    for rule in rules:
        for target, rate in rule_exe(rule, system).items():
            per_rule = acc.setdefault(target, {})
            per_rule[rule.tag] = per_rule.get(rule.tag, 0.0) + rate
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

    @property
    def total_rate(self) -> float:
        return sum(
            r for per in self.firing_targets.values() for r in per.values()
        ) + sum(r for per in self.rewrite_targets.values() for r in per.values())


def to_augmented(system: System, rules: Sequence[RewriteRule] = ()) -> AugmentedState:
    """Augmented form of a system already in normal form."""
    return AugmentedState(
        net=system.net,
        marking=system.marking,
        firing_targets=fire_agg(system),
        rewrite_targets=all_rewrites(system, rules),
    )
