"""Breadth-first construction of ordinary and quotient transition systems."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .canon import normalize
from .net import System, enabled_instances, fire
from .rewrite import RewriteRule, rule_app, to_augmented

Edge = tuple[int, int, str, float]  # source, target, label, rate


class BudgetExceededError(RuntimeError):
    """State budget exhausted during exploration."""

    def __init__(self, states: int, level: int, budget: int):
        super().__init__(
            f"state budget {budget} exceeded: {states} states at BFS level {level}"
        )
        self.states = states
        self.level = level
        self.budget = budget


@dataclass
class TransitionSystem:
    """Indexed state graph with rate-labeled edges.

    State 0 is the initial state; states are numbered by BFS level and, within
    a level, by the canonical system order, so the numbering does not depend
    on the exploration schedule.
    """

    mode: str
    states: list[System]
    edges: list[Edge]
    levels: list[int]
    _index: dict = field(default_factory=dict, repr=False)
    _finals: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self._index:
            self._index = {s: i for i, s in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    def state_index(self, system: System) -> int:
        return self._index[system]

    def final_states(self) -> tuple[int, ...]:
        """Indices of states with no outgoing edge."""
        if self._finals is None:
            has_out = [False] * len(self.states)
            for src, _dst, _label, _rate in self.edges:
                has_out[src] = True
            self._finals = tuple(i for i, out in enumerate(has_out) if not out)
        return self._finals

    def search_final(self, pred: Callable[[System], bool]) -> tuple[int, ...]:
        """Final states whose system satisfies ``pred``."""
        return tuple(i for i in self.final_states() if pred(self.states[i]))

    def write_states(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.states:
                fh.write(s.canonical())
                fh.write("\n")

    def write_edges(self, path) -> None:
        with open(path, "w") as fh:
            for src, dst, label, rate in self.edges:
                fh.write(f"{src} {dst} {label} {rate!r}\n")


def _quotient_successors(rules: Sequence[RewriteRule]):
    def successors(state: System) -> list[tuple[System, str, float]]:
        aug = to_augmented(state, rules)
        out = []
        for marking, per_tag in aug.firing_targets.items():
            target = System(state.net, marking)
            out.extend((target, label, rate) for label, rate in per_tag.items())
        for target, per_rule in aug.rewrite_targets.items():
            out.extend((target, label, rate) for label, rate in per_rule.items())
        return out

    return successors


def _ordinary_successors(rules: Sequence[RewriteRule]):
    def successors(state: System) -> list[tuple[System, str, float]]:
        merged: dict[tuple[System, str], float] = {}
        order: list[tuple[System, str]] = []

        def add(target: System, label: str, rate: float) -> None:
            key = (target, label)
            if key in merged:
                # parallel edges with one label collapse, rates summed
                merged[key] += rate
            else:
                merged[key] = rate
                order.append(key)

        for t in enabled_instances(state):
            add(System(state.net, fire(t, state.marking)), t.tag.tag, t.tag.rate)
        for rule in rules:
            for _match, raw in rule_app(rule, state):
                add(normalize(raw) if rule.normalize_result else raw, rule.tag, rule.rate)
        return [(target, label, merged[(target, label)]) for target, label in order]

    return successors


def explore(
    initial: System,
    rules: Sequence[RewriteRule] = (),
    mode: str = "quotient",
    max_states: int | None = None,
) -> TransitionSystem:
    """Fixed-point BFS of the transition system generated by ``initial``.

    Quotient mode explores normal forms with match-aggregated edge rates.
    Ordinary mode stores states verbatim, one edge per firing instance or
    rule match (parallel same-label edges merge, rates summed); rules whose
    right-hand side normalizes still do so, since that is part of the rule.
    ``max_states`` is checked as each state is added.
    """
    if mode == "quotient":
        start = normalize(initial)
        successors = _quotient_successors(rules)
    elif mode == "ordinary":
        start = initial
        successors = _ordinary_successors(rules)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    states: list[System] = [start]
    levels: list[int] = [0]
    ids: dict[System, int] = {start: 0}
    edges: list[Edge] = []
    frontier = [0]
    level = 0
    while frontier:
        level += 1
        next_frontier: list[int] = []
        for src in frontier:
            for target, label, rate in successors(states[src]):
                tid = ids.get(target)
                if tid is None:
                    tid = len(states)
                    ids[target] = tid
                    states.append(target)
                    levels.append(level)
                    next_frontier.append(tid)
                    if max_states is not None and len(states) > max_states:
                        raise BudgetExceededError(len(states), level, max_states)
                edges.append((src, tid, label, rate))
        frontier = next_frontier

    # renumber: BFS level, then canonical order within a level
    order = sorted(range(len(states)), key=lambda i: (levels[i], states[i].key))
    remap = {old: new for new, old in enumerate(order)}
    states = [states[i] for i in order]
    levels = [levels[i] for i in order]
    edges = sorted((remap[s], remap[d], lab, r) for s, d, lab, r in edges)
    for prev, cur in zip(edges, edges[1:]):
        if prev[:3] == cur[:3]:
            raise AssertionError(f"duplicate edge {cur[:3]}")
    return TransitionSystem(mode=mode, states=states, edges=edges, levels=levels)


def quotient_partition(ordinary: TransitionSystem, quotient: TransitionSystem) -> list[int]:
    """Map each ordinary state to the index of its normal form in the quotient.

    Total and surjective when both systems were explored from the same
    initial system.
    """
    part = []
    for s in ordinary.states:
        part.append(quotient.state_index(normalize(s)))
    if set(part) != set(range(len(quotient.states))):
        raise ValueError("normalize image does not cover the quotient states")
    return part
