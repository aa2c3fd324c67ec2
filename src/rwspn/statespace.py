"""Breadth-first construction of ordinary and quotient transition systems."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import rewrite
from .canon import normalize, normalize_vector
from .net import System
from .rewrite import RewriteRule, State

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
    _finals: tuple | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.states)

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
    In both modes a firing and a rule match with the same label and target
    give one edge with the summed rate.
    ``max_states`` is checked as each state is added.

    The BFS holds each state as its net and an int tuple over the net's
    compiled form (``Net.compiled``) and expands it with the successor
    function in ``rewrite``, the same one that ``to_augmented`` reads; it
    fires and applies the rules' compiled sites on the tuples, normalizes
    each distinct raw target once per call, and decodes every state to a
    ``System`` once, after the BFS, for the result.
    """
    if mode not in ("quotient", "ordinary"):
        raise ValueError(f"unknown mode {mode!r}")
    quotient = mode == "quotient"
    start = (initial.net, initial.net.compiled().encode(initial.marking))
    if quotient:
        start = normalize_vector(*start)
    normal: dict[State, State] = {}  # raw state -> normal form, for this call

    if max_states is not None and max_states < 1:
        raise BudgetExceededError(1, 0, max_states)
    states: list = [start]
    levels: list[int] = [0]
    ids: dict[State, int] = {start: 0}
    edges: list[Edge] = []
    frontier = [0]
    level = 0
    while frontier:
        level += 1
        next_frontier: list[int] = []
        for src in frontier:
            net, vec = states[src]
            successors = rewrite._successors(net, vec, rules, quotient, normal)
            for (target, label), rate in successors.items():
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
    # decode in place, so that one copy of the state list is alive at a time
    del ids, normal
    for i, (net, vec) in enumerate(states):
        states[i] = System.decoded(net, vec)

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
    initial system; raises ``ValueError`` when it is not.
    """
    index = {s: i for i, s in enumerate(quotient.states)}
    part = [index.get(normalize(s)) for s in ordinary.states]
    if None in part:
        raise ValueError(f"normal form of ordinary state {part.index(None)} is not in the quotient")
    if set(part) != set(range(len(quotient.states))):
        raise ValueError("normalize image does not cover the quotient states")
    return part
