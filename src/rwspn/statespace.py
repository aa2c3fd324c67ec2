"""Breadth-first construction of ordinary and quotient transition systems."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable

import numpy as np

from . import rewrite
from .canon import _runs, normalize_block
from .net import Net, System
from .rewrite import RewriteRule

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
        super().__init__(f"state budget {budget} exceeded: {states} states at BFS level {level}")
        self.states, self.level, self.budget = states, level, budget


class _Store:
    """The states of one net: the matrix of their rows, and an index of
    the rows by hash.

    ``rows`` holds the states' marking vectors over ``net.compiled()``, in
    the order stored, in the narrowest signed int dtype that holds every
    count stored so far: a row that does not fit widens the matrix.
    ``ids`` holds each row's state id, ``hashes`` the rows'
    ``rewrite._hash`` in ascending order, and ``slots`` the row of each.
    """

    __slots__ = ("net", "rows", "ids", "hashes", "slots")

    def __init__(self, net: Net):
        self.net, self.ids = net, np.empty(0, dtype=np.int32)
        self.rows = np.empty((0, len(net.compiled().places)), dtype=np.int8)
        self.hashes = self.slots = np.empty(0, dtype=np.int64)

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The state id of each row of an int64 matrix, or -1 for a row not
        stored.  Every stored row with the row's hash is compared, so a
        collision never matches two rows."""
        hashes = rewrite._hash(rows)
        lo, hi = (np.searchsorted(self.hashes, hashes, side) for side in ("left", "right"))
        found = np.full(len(rows), -1, dtype=np.int64)
        for k in range(int((hi - lo).max(initial=0))):  # once, unless hashes collide
            at = np.flatnonzero((lo + k < hi) & (found < 0))
            slot = self.slots[lo[at] + k]
            same = (self.rows[slot] == rows[at]).all(axis=1)
            found[at[same]] = self.ids[slot[same]]
        return found

    def add(self, rows: np.ndarray, first: int) -> None:
        """Store the rows of an int64 matrix, none stored yet, as the states
        numbered from ``first`` on."""
        # a signed dtype that holds -1 - top holds top
        wide = np.promote_types(self.rows.dtype, np.min_scalar_type(-1 - int(rows.max(initial=0))))
        slots = np.concatenate((self.slots, np.arange(len(self.rows), len(self.rows) + len(rows))))
        self.rows = np.concatenate((self.rows, rows), dtype=wide)
        self.ids = np.concatenate((self.ids, np.arange(first, first + len(rows), dtype=np.int32)))
        # the sorted hashes, then the new ones: a stable sort merges them
        hashes = np.concatenate((self.hashes, rewrite._hash(rows)))
        order = np.lexsort((hashes,))
        self.hashes, self.slots = hashes[order], slots[order]


class _States(Sequence):
    """Read-only view of a transition system's states: each access decodes
    the ``System`` of its net and row; ``len`` decodes nothing."""

    __slots__ = ("_stores", "_net", "_row")

    def __init__(self, stores: list, size: int):
        self._stores, (self._net, self._row) = stores, np.empty((2, size), dtype=np.int32)
        for k, store in enumerate(stores):
            self._net[store.ids], self._row[store.ids] = k, np.arange(len(store.ids))

    def __len__(self) -> int:
        return len(self._net)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        store = self._stores[self._net[i]]
        return System.decoded(store.net, store.rows[self._row[i]])


class TransitionSystem:
    """Indexed state graph with rate-labeled edges, built by ``explore``.

    State 0 is the initial state; states are numbered by BFS level and, within
    a level, by the canonical system order, so the numbering does not depend
    on the exploration schedule.

    The states are held in one store per net (``_stores``, each a
    ``_Store``): a matrix of rows, the marking vectors over
    ``net.compiled()`` in the narrowest int dtype that holds their counts,
    and their hash index.  Per state, ``levels``, a memoryview of an int32
    array, holds its BFS level, and the int32 arrays ``states._net`` and
    ``states._row``, derived from the stores' ``ids``, its store's index
    in ``_stores`` and its row there.  No rendered marking is held:
    ``write_states`` renders each run of states of one net in bounded
    slices of rows.  ``states`` decodes a ``System`` on access.
    The edges are the int32 arrays ``src``, ``dst`` and ``kind``, sorted by
    (src, dst, label, rate); ``kind`` indexes ``kinds``, the sorted distinct
    (label, rate) pairs.  ``edges`` lists them as (src, dst, label, rate)
    tuples, built on first access.
    """

    def __init__(self, stores: list, levels, src, dst, kind, kinds):
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
            edge = (int(self.src[i]), int(self.dst[i]), self.kinds[self.kind[i]][0])
            raise AssertionError(f"duplicate edge {edge}")
        self.levels, self._stores, self.states = levels, stores, _States(stores, len(levels))
        self._edges = None

    def __len__(self) -> int:
        return len(self.levels)

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
        net, row = self.states._net, self.states._row
        bounds = [0, *(np.flatnonzero(np.diff(net)) + 1).tolist(), len(self)]
        with open(path, "wb") as fh:
            for start, stop in zip(bounds, bounds[1:]):
                store = self._stores[net[start]]
                head, render = f"{store.net.render()}  ".encode(), store.net.compiled().render
                for at in range(start, stop, _ROWS):
                    for mark in render(store.rows[row[at:min(at + _ROWS, stop)]].astype(np.int64)):
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

    The BFS holds the states in one store per net (``_Store``): a matrix
    of rows, the marking vectors over the net's compiled form
    (``Net.compiled``) in the narrowest int dtype that holds them, and a
    sorted index of their row hashes.  It expands one level at a time
    through ``rewrite._successors``, on one int64 block per net with
    states in the level; that labels the successors, normalizes them per
    target net as one block and returns, per net, its distinct target
    rows.  Every state of a level is found while the level before it is
    expanded, so ``explore`` numbers each state once, when its level is
    complete: each net's store looks up the target rows by hash, comparing
    the rows of every hash match, and the rows absent from it are rendered
    (``CompiledNet.render``), sorted in canonical order (``System.key``:
    net text, then marking text), given their final ids and stored; the
    initial state is numbered the same way, as level 0.  So states are
    numbered by BFS level, then canonical order.  Each level's edges are
    merged and kept as int32 arrays; no state is decoded to a ``System``
    unless ``TransitionSystem.states`` is read.

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
    net, block = normalize_block(*initial._state()) if quotient else initial._state()
    stores: dict = {}  # net -> its store
    sizes: list = []  # states per level
    kind_of: dict[tuple[str, float], int] = {}  # (label, rate) -> kind id
    # int32 (src, dst, kind) arrays per level, after an empty one
    edges: list[tuple] = [(np.zeros(0, dtype=np.int32),) * 3]

    # the targets found by expanding states begin..end: at first, the initial state
    targets, src, begin, end = [(net, block)], [], 0, 0
    while targets:  # number the level that targets finds
        level, found = [], end  # (store, its first row) per net with states in the level
        known = [(stores.get(net) or stores.setdefault(net, _Store(net))).find(rows)
                 for net, rows in targets]
        if max_states is not None and end + sum((ids < 0).sum() for ids in known) > max_states:
            raise BudgetExceededError(max_states + 1, len(sizes), max_states)
        # the new states in canonical order, each net's markings rendered
        # ``_SLICE`` rows at a time
        for (net, rows), ids in sorted(zip(targets, known), key=lambda t: t[0][0].render()):
            new, render = np.flatnonzero(ids < 0), net.compiled().render
            if not len(new):
                continue
            marks = [mark for at in range(0, len(new), _SLICE)
                     for mark in render(rows[new[at:at + _SLICE]])]
            new = new[sorted(range(len(new)), key=marks.__getitem__)]
            del marks  # the strings order one level only
            level.append((stores[net], len(stores[net].rows)))
            stores[net].add(rows[new], found)
            ids[new] = np.arange(found, found + len(new))
            found += len(new)
        sizes.append(found - end)
        if len(src):
            number = np.concatenate(known)[dst]
            edges.append(_merged(src + begin, number, label, rate, labels, kind_of))
        del targets, known  # freed before the next level
        begin, end = end, found
        targets, src, dst, _fired, label, labels, rate = rewrite._successors(
            ((store.net, store.rows[a:].astype(np.int64)) for store, a in level), rules, quotient)

    src, dst, kind = map(np.concatenate, zip(*edges))
    del edges
    # a memoryview of the int32 levels, whose entries read as Python ints
    levels = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes).data
    return TransitionSystem(list(stores.values()), levels, src, dst, kind, list(kind_of))


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
    states' rows, one block per net: each ordinary net's rows are
    normalized and looked up in the quotient's store of their net; no
    state is decoded.
    """
    stores = {store.net: store for store in quotient._stores}
    part = np.full(len(ordinary), -1, dtype=np.int64)
    for store in ordinary._stores:
        canon, normal = normalize_block(store.net, store.rows.astype(np.int64))
        part[store.ids] = (stores.get(canon) or _Store(canon)).find(normal)
    if (part < 0).any():
        raise ValueError(f"normal form of ordinary state {part.argmin()} is not in the quotient")
    if not np.bincount(part, minlength=len(quotient)).all():
        raise ValueError("normalize image does not cover the quotient states")
    return part.tolist()
