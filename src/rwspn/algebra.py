"""Compositional and manipulation operators that preserve symmetric labeling."""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .bag import Bag
from .net import Net, Pair, Place, System, Transition, TransitionTag


class DetachError(ValueError):
    """Subnet removal attempted on transitions the net does not contain."""


def repl_share(
    net: Net,
    k: int,
    tag: str,
    shared_places: Iterable[Place] = (),
    shared_tags: Iterable[TransitionTag] = (),
) -> Net:
    """Replicate ``net`` ``k`` times under a fresh hierarchy level ``tag``.

    In replica ``i`` every non-shared place label gains the outermost pair
    ``(tag, i)``; shared places keep their labels.  Transitions whose tag is
    in ``shared_tags`` are merged into a single transition whose incidence
    bags are the sum of the k relabeled copies; all others get one copy per
    replica.
    """
    if k < 1:
        raise ValueError(f"replica count must be >= 1, got {k}")
    shared_places = frozenset(shared_places)
    shared_tags = frozenset(shared_tags)
    missing = shared_places - net.place_set
    if missing:
        raise ValueError(f"shared places not in net: {sorted(missing)[:3]}")
    missing_tags = shared_tags - net.tags()
    if missing_tags:
        raise ValueError(f"shared tags not in net: {sorted(missing_tags)[:3]}")

    def relabel(bag: Bag, i: int) -> Bag:
        return Bag(
            {
                (pl if pl in shared_places else pl.extended((tag, i))): c
                for pl, c in bag.items()
            }
        )

    out = []
    for t in net:
        if t.tag in shared_tags:
            inp, outp, inh = Bag(), Bag(), Bag()
            for i in range(k):
                inp = inp + relabel(t.input, i)
                outp = outp + relabel(t.output, i)
                inh = inh + relabel(t.inhibitor, i)
            out.append(Transition(inp, outp, inh, t.tag))
        else:
            for i in range(k):
                out.append(
                    Transition(
                        relabel(t.input, i),
                        relabel(t.output, i),
                        relabel(t.inhibitor, i),
                        t.tag,
                    )
                )
    return Net(out)


def join(a: System, b: System) -> System:
    """Juxtaposition: multiset union of the nets, sum of the markings."""
    return System(Net(a.net.transitions + b.net.transitions), a.marking + b.marking)


def detach(net: Net, sub: Net) -> Net:
    """Remove the transitions of ``sub`` (a sub-multiset) from ``net``."""
    remaining = Counter(net.transitions)
    for t in sub.transitions:
        if remaining.get(t, 0) == 0:
            raise DetachError(f"transition not in net: {t}")
        remaining[t] -= 1
    return Net(remaining.elements())


def set_mark(x: System | Net, pattern: Iterable[str], count: int) -> System:
    """Set the multiplicity of every place whose tag sequence equals ``pattern``.

    A bare net starts from the empty marking.  All other entries are kept.
    """
    pattern = tuple(pattern)
    if isinstance(x, System):
        net, marking = x.net, x.marking
    else:
        net, marking = x, Bag()
    targets = [pl for pl in net.places() if pl.tags() == pattern]
    if not targets:
        raise ValueError(f"no place matches tag pattern {pattern!r}")
    for pl in targets:
        marking = marking.with_count(pl, count)
    return System(net, marking)


def match_tag(marking: Bag, tag: str) -> Bag:
    """Sub-bag of places whose innermost pair carries ``tag``."""
    return marking.filter(lambda pl: pl.pairs[0][0] == tag)


def subag(marking: Bag, pair: Pair) -> Bag:
    """Sub-bag of places whose label contains ``pair`` anywhere."""
    pair = (pair[0], pair[1])
    return marking.filter(lambda pl: pair in pl.pairs)


def min_index_not_in(net: Net, tag: str) -> int:
    """Smallest index i such that no place label of ``net`` contains (tag, i)."""
    used = {i for pl in net.places() for t, i in pl.pairs if t == tag}
    i = 0
    while i in used:
        i += 1
    return i


def subnet_by_pair(net: Net, pair: Pair) -> Net:
    """Transitions touching at least one place whose label contains ``pair``."""
    pair = (pair[0], pair[1])
    return Net(t for t in net if any(pair in pl.pairs for pl in t.places))
