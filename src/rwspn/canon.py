"""Canonical normal form of symmetrically labeled systems.

Places whose labels share a suffix and carry the same tag at the position
before it form a sibling group; any permutation of a group's indices that
is applied consistently to net and marking maps the system to an equivalent
one.  ``normalize`` picks the representative whose rendering is minimal in
byte order and re-densifies indices so that every group spans 0..k-1.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

from .bag import Bag
from .net import Net, Pair, Place, System, Transition

GroupKey = tuple[tuple[Pair, ...], str]  # (label suffix, tag)
Assignment = dict[GroupKey, dict[int, int]]


class CanonBoundError(RuntimeError):
    """Brute-force enumeration would exceed the configured bound."""

    def __init__(self, total: int, bound: int):
        super().__init__(f"{total} sibling permutations exceed bound {bound}")
        self.total = total
        self.bound = bound


def sibling_groups(net: Net) -> tuple[tuple[GroupKey, tuple[int, ...]], ...]:
    """Sibling groups of a net, deepest (longest suffix) first.

    Each entry is ((suffix, tag), indices); indices are exactly those that
    occur in the net for that context.
    """
    if net._groups is None:
        acc: dict[GroupKey, set[int]] = {}
        for pl in net.places():
            for suffix, tag, idx, _q in pl.memberships:
                acc.setdefault((suffix, tag), set()).add(idx)
        ordered = sorted(acc.items(), key=lambda kv: (-len(kv[0][0]), kv[0]))
        net._groups = tuple((key, tuple(sorted(idx))) for key, idx in ordered)
    return net._groups


def _rewrite_place(pl: Place, chosen: Assignment) -> Place:
    out = []
    for q, (tag, idx) in enumerate(pl.pairs):
        mapping = chosen.get((pl.pairs[q + 1:], tag))
        out.append((tag, mapping[idx]) if mapping is not None else (tag, idx))
    return Place(out)


def _rewrite_bag(bag: Bag, memo: dict, chosen: Assignment) -> Bag:
    out = {}
    for pl, c in bag.items():
        npl = memo.get(pl)
        if npl is None:
            npl = _rewrite_place(pl, chosen)
            memo[pl] = npl
        out[npl] = out.get(npl, 0) + c
    return Bag(out)


_BOUND = 10**6  # most assignments an enumeration tries


def _arrangements(groups, bound: int = _BOUND):
    """Every assignment that maps each group's indices bijectively onto
    0..k-1, lazily; raises ``CanonBoundError`` up front if there are more
    than ``bound``."""
    total = math.prod(math.factorial(len(ix)) for _, ix in groups)
    if total > bound:
        raise CanonBoundError(total, bound)
    perms = itertools.product(*(itertools.permutations(range(len(ix))) for _, ix in groups))
    return (
        {key: dict(zip(ix, perm)) for (key, ix), perm in zip(groups, combo)} for combo in perms
    )


class _NetForm(NamedTuple):
    """What normalization needs to know about one raw net."""

    # the canonical net, None if that is the raw net itself: a net that
    # held itself through its form would be freed only by the collector
    net: Net | None
    # per candidate: the raw-net place index that lands on each canonical
    # place index, so a raw vector's image is ``[vec[i] for i in perm]``
    perms: tuple
    # per column-sorted group: place indices per column (group index), by row
    columns: tuple


_END = ((math.inf,),)  # past every row: a column with no more cells is absent there


def _swap_fixes(net: Net, key: GroupKey, i: int, k: int) -> bool:
    swap = {j: j for j in range(k)} | {i: i + 1, i + 1: i}
    return apply_assignment(System(net), {key: swap}).net is net


def _net_form(net: Net) -> _NetForm:
    """Canonical net and marking candidates of a raw net, computed once
    and kept in ``net._cache``, so that the form is freed with the net.

    The net is densified first.  If every adjacent transposition of every
    sibling group fixes the dense net, those transpositions generate the
    admissible group, so the dense net is every assignment's image; the
    candidates are then the arrangements of the groups that the column sort
    cannot order.  Otherwise every assignment is tried and those reaching
    the minimal net rendering are kept.
    """
    form = net._cache.get(_NetForm)
    if form is not None:
        return form
    densify = {key: dict(zip(ix, range(len(ix)))) for key, ix in sibling_groups(net)}
    dense = apply_assignment(System(net), densify).net
    groups = [(key, ix) for key, ix in sibling_groups(dense) if len(ix) > 1]
    symmetric = all(
        _swap_fixes(dense, key, i, len(ix)) for key, ix in groups for i in range(len(ix) - 1)
    )
    # a top-level group whose tag never occurs further in has contiguous
    # rows in the rendering: one per inner label, one cell per index
    inner = {tag for pl in dense.places() for tag, _ in pl.pairs[:-1]}
    sortable = frozenset(
        tag for (suffix, tag), _ in groups if symmetric and not suffix and tag not in inner
    )
    rest = [(key, ix) for key, ix in groups if key[0] or key[1] not in sortable]
    if symmetric:
        best, kept = dense, list(_arrangements(rest))
    else:
        best, kept = None, []
        for assignment in _arrangements(rest):
            image = apply_assignment(System(dense), assignment).net
            if best is None or image.render() < best.render():
                best, kept = image, []
            if image is best:
                kept.append(assignment)
    index = best.compiled().index
    perms = []
    for a in kept:
        perm = [0] * len(index)
        for i, pl in enumerate(net.places()):
            perm[index[_rewrite_place(_rewrite_place(pl, densify), a)]] = i
        perms.append(tuple(perm))
    # rows of a sorted group in place order, so they rank in rendering order
    rows: dict = {}
    for pl in best.places():
        tag, i = pl.pairs[-1]
        if tag in sortable:
            rows.setdefault(tag, {}).setdefault(pl.pairs[:-1], {})[i] = index[pl]
    columns = []
    for by_row in rows.values():  # symmetric, so every row has every index
        k = len(next(iter(by_row.values())))
        columns.append(tuple(tuple(cells[i] for cells in by_row.values()) for i in range(k)))
    form = net._cache[_NetForm] = _NetForm(
        None if best is net else best, tuple(dict.fromkeys(perms)), tuple(columns)
    )
    return form


def _sort_columns(vec: tuple, columns: tuple) -> tuple:
    """Renumber the indices of each column-sorted group by column content.

    Columns compare cell by cell, row by row in place order: a present cell
    comes before an absent one, and present cells compare by count as
    decimal strings, which is the byte order of the rendered entries.
    """
    out = list(vec)
    for group in columns:
        def content(col: int) -> tuple:
            return tuple((r, str(vec[j])) for r, j in enumerate(group[col]) if vec[j]) + _END

        order = sorted(range(len(group)), key=content)
        for new, old in enumerate(order):
            if new != old:
                for j_new, j_old in zip(group[new], group[old]):
                    out[j_new] = vec[j_old]
    return tuple(out)


def _minimal(form: _NetForm, canon: Net, vec: tuple) -> tuple:
    """The candidate image of a raw vector with the smallest rendering over
    the canonical net ``canon``."""
    render = canon.compiled().render
    best = best_text = None
    seen = set()
    for perm in form.perms:
        image = tuple([vec[i] for i in perm])
        if image in seen:
            continue
        seen.add(image)
        if form.columns:
            image = _sort_columns(image, form.columns)
        text = render(image)
        if best is None or text < best_text:
            best, best_text = image, text
    return best


def normalize_vector(net: Net, vec: tuple) -> tuple[Net, tuple]:
    """``normalize`` on a marking vector over ``net.compiled()``: the
    canonical net and the normal-form vector over its compiled places."""
    form = _net_form(net)
    canon = form.net or net
    return canon, _minimal(form, canon, vec)


def normalize(system: System) -> System:
    """The canonical representative of the system's automorphism class.

    This is the byte-order minimal rendering over all admissible
    assignments, the same system ``brute_force_normal`` returns; indices of
    every sibling group span 0..k-1 afterwards.  The column sort orders
    index strings like numbers only up to 10 siblings; larger groups still
    get one representative per class, which may not be the minimum.
    """
    net, vec = normalize_vector(system.net, system.net.compiled().encode(system.marking))
    return System.decoded(net, vec)


def normalize_marking(net: Net, marking: Bag) -> Bag:
    """Normal form of a marking over a net already in normal form."""
    canon, vec = normalize_vector(net, net.compiled().encode(marking))
    return canon.compiled().decode(vec)


def apply_assignment(system: System, assignment: Assignment) -> System:
    """Relabel every place through per-group index maps (wreath semantics:
    lookups use each label's original suffix)."""
    if not assignment:
        return system
    memo: dict = {}
    marking = _rewrite_bag(system.marking, memo, assignment)
    net = Net(
        Transition(
            _rewrite_bag(t.input, memo, assignment),
            _rewrite_bag(t.output, memo, assignment),
            _rewrite_bag(t.inhibitor, memo, assignment),
            t.tag,
        )
        for t in system.net
    )
    return System(net, marking)


class _Images(NamedTuple):
    """What the brute-force oracle knows about one raw net."""

    # the least image net by rendering, None if that is the raw net itself
    net: Net | None
    # per distinct place map of an assignment reaching that net: the image
    # of each of the raw net's places, aligned with ``places()``
    maps: tuple


def _images(net: Net, assignments) -> _Images:
    """Every assignment's image of the net, reduced to the least one and
    the place maps that reach it; kept in ``net._cache``, so that the
    table is freed with the net."""
    best, kept = None, []
    for assignment in assignments:
        image = apply_assignment(System(net), assignment).net
        if best is None or image.render() < best.render():
            best, kept = image, []
        if image is best:
            kept.append(assignment)
    maps = (tuple(_rewrite_place(pl, a) for pl in net.places()) for a in kept)
    least = None if best is net else best
    table = net._cache[_Images] = _Images(least, tuple(dict.fromkeys(maps)))
    return table


def brute_force_normal(system: System, bound: int = _BOUND) -> System:
    """Testing oracle: enumerate every admissible index assignment.

    For each sibling group all bijections of its index set onto 0..k-1 are
    tried (covering both permutation and re-densification); the systemOrder
    minimum is returned.  An image net depends only on the net, so the
    images are built once per net: the least image and the place maps of
    the assignments reaching it are kept with the net.  Each call renames
    the marking through every kept map; since ``System.key`` compares the
    net first, the least of those is the least image of the system.  The
    bound is checked on every call, before the table is used.
    """
    net = system.net
    assignments = _arrangements(sibling_groups(net), bound)
    table = net._cache.get(_Images) or _images(net, assignments)
    index = net.compiled().index
    items = [(index[pl], c) for pl, c in system.marking.items()]
    images = (Bag({image[i]: c for i, c in items}) for image in table.maps)
    return System(table.net or net, min(images, key=Bag.render))


def random_admissible_assignment(system: System, rng: random.Random) -> Assignment:
    """A random permutation of each sibling group's existing indices."""
    out: Assignment = {}
    for key, indices in sibling_groups(system.net):
        if len(indices) > 1:
            shuffled = list(indices)
            rng.shuffle(shuffled)
            out[key] = dict(zip(indices, shuffled))
    return out


def system_order(a: System, b: System) -> int:
    """Total order over systems: byte order of the canonical renderings."""
    ka, kb = a.key, b.key
    if ka == kb:
        return 0
    return -1 if ka < kb else 1
