"""Breadth-first construction of ordinary and quotient transition systems."""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby, islice, starmap
from operator import itemgetter
from typing import Callable

import numpy as np

from . import rewrite
from .canon import _runs, normalize_states
from .net import System, _block
from .rewrite import RewriteRule, State

Edge = tuple[int, int, str, float]  # source, target, label, rate

# entries per slice that the exports, and the renderer of markings, turn
# into Python lists at once
_SLICE = 1 << 12
# rows per slice that ``write_states`` renders, and the bytes it buffers
# before a write: 8,192 rendered rows of a wide net are megabytes of text
_ROWS, _BUFFER = 1 << 10, 1 << 18


def _write_lines(fh, tails: list, first, second, tail) -> None:
    """Write the line ``f"{a} {b}{tails[t]}"`` of each entry of the
    equal-length int arrays, one joined write per slice of ``_SLICE``
    entries, so an export never holds a whole-file list."""
    for start in range(0, len(first), _SLICE):
        part = slice(start, start + _SLICE)
        fh.write("".join([
            f"{a} {b}{tails[t]}"
            for a, b, t in zip(first[part].tolist(), second[part].tolist(), tail[part].tolist())
        ]))


class BudgetExceededError(RuntimeError):
    """State budget exhausted during exploration."""

    def __init__(self, states: int, level: int, budget: int):
        super().__init__(
            f"state budget {budget} exceeded: {states} states at BFS level {level}"
        )
        self.states = states
        self.level = level
        self.budget = budget


class _States(Sequence):
    """Read-only view of a transition system's states: each access decodes
    the ``System`` of its (net, row) state; ``len`` decodes nothing."""

    __slots__ = ("_cells",)

    def __init__(self, cells: list):
        self._cells = cells

    def __len__(self) -> int:
        return len(self._cells)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(starmap(System.decoded, self._cells[i]))
        return System.decoded(*self._cells[i])

    def __iter__(self):
        return starmap(System.decoded, self._cells)


class TransitionSystem:
    """Indexed state graph with rate-labeled edges, built by ``explore``.

    State 0 is the initial state; states are numbered by BFS level and, within
    a level, by the canonical system order, so the numbering does not depend
    on the exploration schedule.

    Each state is held as its net and its row, the bytes of its int64
    marking vector over ``net.compiled()`` (``rewrite.State``); no
    rendered marking is held, and ``write_states`` renders each run of
    states of one net in bounded slices of rows.  ``states`` decodes a
    ``System`` on access.
    The edges are the int32 arrays ``src``, ``dst`` and ``kind``, sorted by
    (src, dst, label, rate); ``kind`` indexes ``kinds``, the sorted distinct
    (label, rate) pairs.  ``edges`` lists them as (src, dst, label, rate)
    tuples, built on first access.
    """

    def __init__(self, cells: list, levels: list, src, dst, kind, kinds):
        """Store the states and the edges; ``kind`` indexes ``kinds``, the
        distinct (label, rate) pairs in any order.  Sorts ``kinds``, then the
        edges by (src, dst, kind); raises ``AssertionError`` on two edges
        with the same source, target and label, which the successor merge
        must have summed into one."""
        by_pair = sorted(range(len(kinds)), key=kinds.__getitem__)
        rank = np.empty(len(kinds), dtype=np.int32)
        rank[by_pair] = np.arange(len(kinds))
        self.kinds = tuple(kinds[i] for i in by_pair)
        kind = rank[kind]
        order = np.lexsort((kind, dst, src))
        self.src, self.dst, self.kind = src[order], dst[order], kind[order]
        ids: dict[str, int] = {}
        labels = np.array([ids.setdefault(label, len(ids)) for label, _rate in self.kinds])
        same = (self.src[1:] == self.src[:-1]) & (self.dst[1:] == self.dst[:-1])
        dup = np.flatnonzero(same & (labels[self.kind[1:]] == labels[self.kind[:-1]]))
        if len(dup):
            i = dup[0] + 1
            raise AssertionError(
                f"duplicate edge {(int(self.src[i]), int(self.dst[i]), self.kinds[self.kind[i]][0])}"
            )
        self.levels = levels
        self._cells = cells
        self.states = _States(cells)
        self._edges = None

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def edges(self) -> list[Edge]:
        if self._edges is None:
            self._edges = [
                (s, d) + self.kinds[k]
                for s, d, k in zip(self.src.tolist(), self.dst.tolist(), self.kind.tolist())
            ]
        return self._edges

    def final_states(self) -> tuple[int, ...]:
        """Indices of states with no outgoing edge."""
        has_out = np.zeros(len(self), dtype=bool)
        has_out[self.src] = True
        return tuple(np.flatnonzero(~has_out).tolist())

    def search_final(self, pred: Callable[[System], bool]) -> tuple[int, ...]:
        """Final states whose system satisfies ``pred``; only those are
        decoded."""
        return tuple(i for i in self.final_states() if pred(self.states[i]))

    def write_states(self, path) -> None:
        """One ``System.canonical()`` line per state.  Each run of states of
        one net is rendered ``_ROWS`` rows at a time (``CompiledNet.render``)
        and written as bytes through a buffer of about ``_BUFFER`` bytes, so
        no more than one slice of markings is ever held as text."""
        out = bytearray()
        with open(path, "wb") as fh:
            for net, run in groupby(self._cells, itemgetter(0)):
                head, render = f"{net.render()}  ".encode(), net.compiled().render
                while rows := [row for _net, row in islice(run, _ROWS)]:
                    for mark in render(_block(net, rows)):
                        out += head
                        out += mark.encode()
                        out += b"\n"
                        if len(out) >= _BUFFER:
                            fh.write(out)
                            out.clear()
            fh.write(out)

    def write_edges(self, path) -> None:
        with open(path, "w") as fh:
            _write_lines(fh, [f" {label} {rate!r}\n" for label, rate in self.kinds],
                         self.src, self.dst, self.kind)


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
    give one edge with the summed rate, summed in firing order, then rule
    order and match order.

    The BFS holds each state as its net and its row, the bytes of its
    int64 marking vector over the net's compiled form (``Net.compiled``),
    and expands one level at a time through ``rewrite._successors``,
    which labels the successors, normalizes them per target net as one
    block and returns the rows of the level's distinct targets.  Every
    state of a level is found while the level before it is expanded, so
    ``explore`` numbers each state once, when its level is complete: the
    level's new rows are rendered per net block (``CompiledNet.render``),
    sorted in canonical order (``System.key``: net text, then marking
    text) and given their final ids.  So states are numbered by BFS
    level, then canonical order.  Each level's edges are merged and kept
    as int32 arrays; no state is decoded to a ``System`` unless
    ``TransitionSystem.states`` is read.

    ``max_states`` must be an int, not a bool, else ``ValueError``.  It is
    checked once per level; ``BudgetExceededError`` reports
    ``max_states + 1`` states (1 for a budget below 1) and the level of
    the first state that did not fit.  A failing rule match
    (``InjectivityError``, or the ``ValueError`` of a token on a place
    absent from the target or of a count past int64) is raised by
    ``_successors`` for the level's failing state numbered first, with
    the error that this state raises first on its own (rule order, then
    match order), before the level's targets are counted: so it wins
    over an exceeded budget in the same level.
    """
    if mode not in ("quotient", "ordinary"):
        raise ValueError(f"unknown mode {mode!r}")
    if max_states is not None:
        if not isinstance(max_states, int) or isinstance(max_states, bool):
            raise ValueError(f"max_states must be an int or None, got {max_states!r}")
        if max_states < 1:
            raise BudgetExceededError(1, 0, max_states)
    quotient = mode == "quotient"
    start = initial._state()
    if quotient:
        (start,) = normalize_states([start])

    net, row = start
    states: list[State] = [start]
    levels: list[int] = [0]
    ids: dict = {net: {row: 0}}  # net -> row -> id
    kind_of: dict[tuple[str, float], int] = {}  # (label, rate) -> kind id
    # int32 (src, dst, kind) arrays per level, after an empty one
    edges: list[tuple] = [(np.zeros(0, dtype=np.int32),) * 3]

    level, begin = 0, 0
    while begin < len(states):  # expand states[begin:end], the last level found
        level += 1
        end = len(states)
        targets, src, dst, _fired, label, labels, rate = rewrite._successors(
            states[begin:end], rules, quotient)
        fresh: dict = {}  # net -> its new rows, in the order found
        for net, rows in targets:
            seen = ids.get(net, {})
            for row in rows:
                if row not in seen:
                    fresh.setdefault(net, {})[row] = None
        if max_states is not None and end + sum(map(len, fresh.values())) > max_states:
            raise BudgetExceededError(max_states + 1, level, max_states)
        # the new states in canonical order, each net's markings rendered
        # ``_SLICE`` rows at a time
        for net in sorted(fresh, key=lambda net: net.render()):
            rows, render = list(fresh[net]), net.compiled().render
            new = [mark for at in range(0, len(rows), _SLICE)
                   for mark in render(_block(net, rows[at:at + _SLICE]))]
            seen = ids.setdefault(net, {})
            for i in sorted(range(len(rows)), key=new.__getitem__):
                seen[rows[i]] = len(states)
                states.append((net, rows[i]))
            del new  # the strings order one level only
        levels += [level] * (len(states) - end)
        number = np.array([ids[net][row] for net, rows in targets for row in rows], dtype=np.int64)
        del targets  # freed before the next level
        if len(src):
            edges.append(_merged(src + begin, number[dst], label, rate, labels, kind_of))
        begin = end

    src, dst, kind = map(np.concatenate, zip(*edges))
    del edges
    return TransitionSystem(states, levels, src, dst, kind, list(kind_of))


def _merged(src, dst, label, rate, labels: list, kind_of: dict) -> tuple:
    """One level's edges as int32 (src, dst, kind) arrays: the raw edges
    with equal (src, dst, label) merged, their rates summed in input
    order (``np.bincount`` adds sequentially), and each (label, summed
    rate) pair numbered through ``kind_of``."""
    group, first = _runs(np.lexsort((label, dst, src)), src, dst, label)
    rate = np.bincount(group, weights=rate)
    src, dst, label = src[first], dst[first], label[first]
    pair, first = _runs(np.lexsort((rate, label)), label, rate)
    kinds = [
        kind_of.setdefault((labels[lab], r), len(kind_of))
        for lab, r in zip(label[first].tolist(), rate[first].tolist())
    ]
    return src.astype(np.int32), dst.astype(np.int32), np.array(kinds, dtype=np.int32)[pair]


def quotient_partition(ordinary: TransitionSystem, quotient: TransitionSystem) -> list[int]:
    """Map each ordinary state to the index of its normal form in the quotient.

    Total and surjective when both systems were explored from the same
    initial system; raises ``ValueError`` when it is not.  Works on the
    states' rows; no state is decoded.
    """
    index = {cell: i for i, cell in enumerate(quotient._cells)}
    part = [index.get(cell) for cell in normalize_states(ordinary._cells)]
    if None in part:
        raise ValueError(f"normal form of ordinary state {part.index(None)} is not in the quotient")
    if set(part) != set(range(len(quotient))):
        raise ValueError("normalize image does not cover the quotient states")
    return part
