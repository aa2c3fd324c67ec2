"""Structured place labels, transitions, nets, systems, and the firing rule."""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bag import Bag, _from_items

Pair = tuple[str, int]

_TAG_RE = re.compile(r"[A-Za-z0-9_-]+\Z")
_INT64_MAX = np.iinfo(np.int64).max
# most cells of a temporary matrix that the block kernels build at once
_CELLS = 1 << 16


class NotEnabledError(RuntimeError):
    """Firing attempted without concession."""

    def __init__(self, transition):
        super().__init__(f"transition not enabled: {transition}")
        self.transition = transition


def _checked_pair(pair) -> Pair:
    tag, index = pair
    if not isinstance(tag, str) or not _TAG_RE.match(tag):
        raise ValueError(f"invalid label tag {tag!r}")
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise ValueError(f"invalid label index {index!r}")
    return (tag, index)


class Place:
    """A net place, identified solely by its hierarchical label.

    The label is a non-empty sequence of (tag, index) pairs read left to
    right from innermost to outermost; the last pair is the root of the
    component hierarchy.  Instances are interned, one per label, so places
    compare and hash by identity.
    """

    __slots__ = ("pairs", "_str")

    _pool: dict = {}

    def __new__(cls, pairs: Iterable[Pair]) -> "Place":
        pairs = tuple(pairs)
        cached = cls._pool.get(pairs)
        if cached is not None:
            return cached
        if not pairs:
            raise ValueError("place label must be non-empty")
        pairs = tuple(_checked_pair(p) for p in pairs)
        self = object.__new__(cls)
        self.pairs = pairs
        self._str = None
        return cls._pool.setdefault(pairs, self)

    def tags(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.pairs)

    def extended(self, pair: Pair) -> "Place":
        """New place with ``pair`` appended as the outermost hierarchy level."""
        return Place(self.pairs + (_checked_pair(pair),))

    def __lt__(self, other: "Place") -> bool:
        return self.pairs < other.pairs

    def __le__(self, other: "Place") -> bool:
        return self.pairs <= other.pairs

    def __str__(self) -> str:
        if self._str is None:
            body = " ".join(f'< "{t}" ; {i} >' for t, i in self.pairs)
            self._str = f"p({body})"
        return self._str

    def __repr__(self) -> str:
        return str(self)


def place(*pairs: Pair) -> Place:
    """Convenience constructor: ``place(("w", 0), ("L", 1))``."""
    return Place(pairs)


@dataclass(frozen=True, order=True)
class TransitionTag:
    """Transition annotation: tag text, priority, and a positive, finite rate.

    The rate is an exponential firing rate at priority 0 and a
    conflict-resolution weight at higher priorities.
    """

    tag: str
    priority: int = 0
    rate: float = 1.0

    def __post_init__(self):
        if not isinstance(self.tag, str) or not _TAG_RE.match(self.tag):
            raise ValueError(f"invalid transition tag {self.tag!r}")
        priority = self.priority
        if not isinstance(priority, int) or isinstance(priority, bool) or priority < 0:
            raise ValueError(f"invalid priority {self.priority!r}")
        object.__setattr__(self, "rate", float(self.rate))
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {self.rate!r}")

    def render(self) -> str:
        return f'<< "{self.tag}", {self.priority}, {self.rate!r} >>'

    def __str__(self) -> str:
        return self.render()


class Transition:
    """A transition given by its input/output/inhibitor incidence bags.

    Instances are interned, one per sort key, so transitions compare and
    hash by identity.
    """

    __slots__ = ("input", "output", "inhibitor", "tag", "sort_key", "_str", "_places")

    _pool: dict = {}

    def __new__(cls, input: Bag, output: Bag, inhibitor: Bag = Bag(), tag: TransitionTag = None):
        if tag is None:
            raise ValueError("transition needs a tag")
        key = ((tag.tag, tag.priority, tag.rate), input.items(), output.items(), inhibitor.items())
        cached = cls._pool.get(key)
        if cached is not None:
            return cached
        for bag in (input, output, inhibitor):
            for elem in bag.elements():
                if not isinstance(elem, Place):
                    raise TypeError(f"incidence bags must contain places, got {elem!r}")
        self = object.__new__(cls)
        self.input = input
        self.output = output
        self.inhibitor = inhibitor
        self.tag = tag
        self.sort_key = key
        self._str = None
        self._places = None
        return cls._pool.setdefault(key, self)

    @property
    def places(self) -> tuple[Place, ...]:
        if self._places is None:
            seen = set(self.input.elements())
            seen.update(self.output.elements())
            seen.update(self.inhibitor.elements())
            self._places = tuple(sorted(seen))
        return self._places

    def __lt__(self, other: "Transition") -> bool:
        return self.sort_key < other.sort_key

    def render(self) -> str:
        if self._str is None:
            self._str = (
                f"[{self.input.render()}, {self.output.render()}, "
                f"{self.inhibitor.render()}] |-> {self.tag.render()}"
            )
        return self._str

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return self.render()


class Net:
    """A finite multiset of transitions; the places are implicit.

    Duplicate transitions are kept and each instance contributes separately
    to enabling and rate aggregation.  Iteration order is sorted, hence
    deterministic.  Instances are interned, one per transition multiset, so
    nets compare and hash by identity.  The pool holds nets weakly: an
    image net built per candidate relabeling is freed once unused, where
    a strong pool would keep up to one per sibling permutation.
    """

    __slots__ = (
        "transitions", "_places", "_place_set", "_str", "_cache", "_compiled", "__weakref__",
    )

    _pool: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __new__(cls, transitions: Iterable[Transition] = ()):
        transitions = tuple(sorted(transitions, key=lambda t: t.sort_key))
        cached = cls._pool.get(transitions)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.transitions = transitions
        self._places = None
        self._place_set = None
        self._str = None
        self._cache = {}
        self._compiled = None
        return cls._pool.setdefault(transitions, self)

    def places(self) -> tuple[Place, ...]:
        if self._places is None:
            seen = set()
            for t in self.transitions:
                seen.update(t.places)
            self._places = tuple(sorted(seen))
        return self._places

    @property
    def place_set(self) -> frozenset:
        if self._place_set is None:
            self._place_set = frozenset(self.places())
        return self._place_set

    def tags(self) -> frozenset:
        return frozenset(t.tag for t in self.transitions)

    def compiled(self) -> "CompiledNet":
        """The integer form of the net, built on first use."""
        if self._compiled is None:
            self._compiled = CompiledNet(self)
        return self._compiled

    def __iter__(self) -> Iterator[Transition]:
        return iter(self.transitions)

    def __len__(self) -> int:
        return len(self.transitions)

    def render(self) -> str:
        if self._str is None:
            self._str = " ; ".join(t.render() for t in self.transitions) or "emptyN"
        return self._str

    def pretty(self) -> str:
        """Multi-line form, one transition per line."""
        if not self.transitions:
            return "emptyN"
        return " ;\n".join(t.render() for t in self.transitions)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Net<{len(self.transitions)} transitions>"


class CompiledNet:
    """Integer form of a net: markings are int vectors over its places.

    ``places`` is the net's sorted place tuple, so a vector lists its entries
    in ``Bag.items()`` order.  ``step`` expands a block of markings, one
    int64 row each, from arrays built on its first call from the
    transitions' bags, in net order (many compiled nets are only indexed,
    encoded or decoded, and never stepped): one check per input pair (it
    fails below the count) and per inhibitor pair (it fails at or above the
    bound), grouped by transition; the transitions that have checks, with
    the first check of each; priorities; Δ = output − input; and the
    largest entry of Δ.
    """

    __slots__ = ("places", "index", "_transitions", "_arrays")

    def __init__(self, net: Net):
        self.places = net.places()
        self.index = {pl: i for i, pl in enumerate(self.places)}
        self._transitions = net.transitions
        self._arrays = None

    def _step_arrays(self) -> tuple:
        transitions = self._transitions
        checks, checked, starts = [], [], []  # (place, count, inhibits) per check
        delta = np.zeros((len(transitions), len(self.places)), dtype=np.int64)
        for k, t in enumerate(transitions):
            if t.input or t.inhibitor:
                checked.append(k)
                starts.append(len(checks))
            checks += [(self.index[pl], c, 0) for pl, c in t.input.items()]
            checks += [(self.index[pl], c, 1) for pl, c in t.inhibitor.items()]
            for bag, sign in ((t.input, -1), (t.output, 1)):
                for pl, c in bag.items():
                    delta[k, self.index[pl]] += sign * c
        idx, thr, inhibits = np.array(checks, dtype=np.int64).reshape(-1, 3).T
        self._arrays = (
            idx, thr, inhibits.astype(bool), np.array(checked, dtype=np.intp),
            np.array(starts, dtype=np.intp),
            np.array([t.tag.priority for t in transitions], dtype=np.int64), delta,
            int(delta.max(initial=0)),
        )
        return self._arrays

    def encode(self, marking: Bag) -> tuple:
        vec = [0] * len(self.places)
        for pl, c in marking.items():
            i = self.index.get(pl)
            if i is None:
                raise ValueError(f"marking uses a place absent from the net: {pl}")
            if c > _INT64_MAX:
                raise ValueError(f"token count {c} on {pl} does not fit in int64")
            vec[i] = c
        return tuple(vec)

    def decode(self, vec: Iterable[int]) -> Bag:
        return _from_items(tuple((pl, c) for pl, c in zip(self.places, vec) if c))

    def render(self, block: np.ndarray) -> list[str]:
        """``Bag.render`` of the decoded marking of each row of ``block``,
        an int64 matrix of marking vectors, byte for byte.

        The nonzero cells come in row-major, hence place, order; each
        distinct (place, count) token is formatted once per call, and each
        row joins its slice of the tokens, or is ``nilP`` if it has none.
        """
        rows, cols = np.nonzero(block)
        counts = block[rows, cols]
        width = max(1, len(self.places))
        # each cell's key is count * width + place, in Python ints where it may pass int64
        if int(block.max(initial=0)) >= _INT64_MAX // width:
            counts = counts.astype(object)
        places, texts = self.places, {}

        def text(key: int) -> str:
            count, col = divmod(key, width)
            texts[key] = token = f"{count} . {places[col]}"
            return token

        tokens = [texts.get(key) or text(key) for key in (counts * width + cols).tolist()]
        out, start = [], 0
        for end in np.cumsum(np.bincount(rows, minlength=len(block))).tolist():
            out.append(" + ".join(tokens[start:end]) or "nilP")
            start = end
        return out

    def step(self, block: np.ndarray) -> tuple:
        """Concession and firing for every row of ``block``, an int64
        matrix of marking vectors: ``(has, rows, ts, targets)``.

        ``has[r, k]`` tells whether transition ``k`` has concession in row
        ``r`` (inputs covered, every inhibitor bound respected).  An
        instance is enabled when it has concession and no instance with
        concession in its row has a higher priority; ``rows`` and ``ts``
        list the enabled (row, transition) pairs, by row and then in net
        order, and ``targets`` the marking each of them fires to.  Raises
        ``ValueError`` when a target count does not fit in int64.
        """
        idx, thr, inhibits, checked, starts, priority, delta, grow = (
            self._arrays or self._step_arrays()
        )
        has = np.ones((len(block), len(priority)), dtype=bool)
        fails = (block[:, idx] < thr) != inhibits
        has[:, checked] = ~np.logical_or.reduceat(fails, starts, axis=1)
        top = np.where(has, priority, -1).max(axis=1, initial=-1)
        rows, ts = np.nonzero(has & (priority == top[:, None]))
        targets = block[rows]
        step = max(1, _CELLS // max(1, delta.shape[1]))  # Δ is gathered a slice of rows at a time
        for at in range(0, len(ts), step):
            targets[at:at + step] += delta[ts[at:at + step]]
        # none passes block.max() + grow; past int64 a count wraps below 0, as no firing leaves one
        if int(block.max(initial=0)) > _INT64_MAX - grow and targets.min(initial=0) < 0:
            pl = self.places[np.argwhere(targets < 0)[0, 1]]
            raise ValueError(f"token count on {pl} after firing does not fit in int64")
        return has, rows, ts, targets


class System:
    """A net together with a marking of its places."""

    __slots__ = ("net", "marking", "_hash")

    def __init__(self, net: Net, marking: Bag = Bag()):
        stale = [pl for pl in marking.elements() if pl not in net.place_set]
        if stale:
            raise ValueError(f"marking uses places absent from the net: {stale[:3]}")
        self.net = net
        self.marking = marking
        self._hash = None

    @classmethod
    def decoded(cls, net: Net, row: np.ndarray) -> "System":
        """The net marked by a row: an int vector over its compiled
        places.  The places come from the net, so they are not checked."""
        self = object.__new__(cls)
        self.net, self.marking, self._hash = net, net.compiled().decode(row.tolist()), None
        return self

    def _state(self) -> tuple:
        """The system as a net block of one state: the net and the 1-row
        int64 matrix of its marking vector, whose row ``decoded`` inverts."""
        return (self.net, np.array([self.net.compiled().encode(self.marking)], dtype=np.int64))

    @property
    def key(self) -> tuple[str, str]:
        return (self.net.render(), self.marking.render())

    def canonical(self) -> str:
        """Single-line rendering; the basis of state identity and ordering."""
        return self.net.render() + "  " + self.marking.render()

    def pretty(self) -> str:
        """Net, blank line, marking."""
        return self.net.pretty() + "\n\n" + self.marking.render()

    def __eq__(self, other) -> bool:
        return isinstance(other, System) and self.net is other.net and self.marking == other.marking

    def __lt__(self, other: "System") -> bool:
        return self.key < other.key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.net, self.marking))
        return self._hash

    def __str__(self) -> str:
        return self.canonical()

    def __repr__(self) -> str:
        return f"System<{len(self.net)} transitions, {self.marking.size} tokens>"


def has_concession(t: Transition, marking: Bag) -> bool:
    """Topological enabling: inputs covered, every inhibitor bound respected."""
    for pl, need in t.input.items():
        if marking[pl] < need:
            return False
    for pl, bound in t.inhibitor.items():
        if marking[pl] >= bound:
            return False
    return True


def enabled_instances(system: System) -> tuple[Transition, ...]:
    """All transition instances enabled in the system, priority rule applied.

    Transitions with concession at less than the maximal concession priority
    are preempted.
    """
    cnet = system.net.compiled()
    _has, _rows, ts, _targets = cnet.step(np.array([cnet.encode(system.marking)], dtype=np.int64))
    return tuple(system.net.transitions[k] for k in ts.tolist())


def enabled(t: Transition, system: System) -> bool:
    """Priority-aware enabling of one transition of the system's net."""
    return t in enabled_instances(system)


def enab_set(system: System) -> tuple[Transition, ...]:
    """The set of enabled transitions, deduplicated and sorted."""
    return tuple(dict.fromkeys(enabled_instances(system)))


def fire(t: Transition, marking: Bag) -> Bag:
    """Fire ``t``: marking - input + output.  Requires concession."""
    if not has_concession(t, marking):
        raise NotEnabledError(t)
    return marking - t.input + t.output


def dead(net: Net, marking: Bag) -> bool:
    """True iff no transition of ``net`` has concession in ``marking``."""
    return not any(has_concession(t, marking) for t in net.transitions)
