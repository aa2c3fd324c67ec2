"""Canonical normal form of symmetrically labeled systems.

Places whose labels share a suffix and carry the same tag at the position
before it form a sibling group; any permutation of a group's indices that
is applied consistently to net and marking maps the system to an equivalent
one.  ``normalize`` picks the representative whose rendering is minimal in
byte order and re-densifies indices so that every group spans 0..k-1.

``normalize_block`` does this for a block of marking vectors over one net
without rendering any of them.  A marking renders as its nonzero cells in
place order, each as the token ``"<count> . <place>"``, joined by
``" + "``.  Byte order on two renderings over the same net is the
lexicographic order of their token sequences, each token compared as the
pair (count string, place string), a shorter sequence first:

- two counts compare as strings, since the ``" "`` after a count sorts
  below every digit, so a count that is a prefix of another sorts first;
- two places compare as strings, since every place string ends in ``)``,
  so none is a proper prefix of another;
- ``"nilP"``, the rendering of the empty marking, meets no other
  rendering: every candidate image of a row holds its counts.

So each count is replaced by the rank of its decimal string and each
place by the rank of its string, and per row the candidate whose token
sequence is least is kept.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

import numpy as np

from .bag import Bag
from .net import _INT64_MAX, Net, Pair, Place, System, Transition, _block, _by_net, _rows

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
    acc: dict[GroupKey, set[int]] = {}
    for pl in net.places():
        for q, (tag, idx) in enumerate(pl.pairs):
            acc.setdefault((pl.pairs[q + 1:], tag), set()).add(idx)
    ordered = sorted(acc.items(), key=lambda kv: (-len(kv[0][0]), kv[0]))
    return tuple((key, tuple(sorted(idx))) for key, idx in ordered)


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
    """What normalization needs to know about one dense net."""

    # the canonical net, None if that is the dense net itself: a net that
    # held itself through its form would be freed only by the collector
    net: Net | None
    # (candidates x places): row c holds the dense-net place index that
    # lands on each canonical place index, so ``block[:, perms]`` is every image
    perms: np.ndarray
    # per column-sorted group: a (columns x rows) array of canonical place
    # indices, the rows of a column in place order
    columns: tuple
    # per canonical place: the rank of its string among the net's places
    ranks: np.ndarray


def _swap_fixes(net: Net, key: GroupKey, ix: tuple, i: int) -> bool:
    swap = dict(zip(ix, ix)) | {ix[i]: ix[i + 1], ix[i + 1]: ix[i]}
    return apply_assignment(System(net), {key: swap}).net is net


def _place_map(net: Net, image: Net, assignment: Assignment) -> tuple:
    """The index among ``image``'s compiled places of each of the net's
    places renamed by ``assignment``."""
    index = image.compiled().index
    return tuple(index[_rewrite_place(pl, assignment)] for pl in net.places())


def _dense(net: Net) -> tuple:
    """The dense net (each sibling group renamed onto 0..k-1 in index order)
    and the raw place that densifies onto each dense place, or (None, None)
    for a dense net; kept in ``net._cache``, so a raw net holds its dense net."""
    pair = net._cache.get(_dense)
    if pair is None:
        densify = {key: dict(zip(ix, range(len(ix)))) for key, ix in sibling_groups(net)}
        dense = apply_assignment(System(net), densify).net
        gather = np.empty(len(net.places()), dtype=np.intp)
        gather[list(_place_map(net, dense, densify))] = np.arange(len(gather))
        pair = net._cache[_dense] = (None, None) if dense is net else (dense, gather)
    return pair


def _net_form(net: Net) -> _NetForm:
    """Canonical net and marking candidates of a dense net, kept in
    ``net._cache``, so that the form is freed with the net.  The swap test
    needs a dense net, whose groups each span 0..k-1: a raw net may be
    fixed by fewer swaps, as densifying renames each inner group by its own
    index set.  If every adjacent swap of every group fixes the net, they
    generate the admissible group, so every assignment's image is the net;
    the candidates keep each column-sorted group in index order and arrange
    the others every way.  Otherwise the net takes the oracle's table: the
    least image and the maps reaching it."""
    form = net._cache.get(_NetForm)
    if form is not None:
        return form
    groups = sibling_groups(net)
    if all(_swap_fixes(net, key, ix, i) for key, ix in groups for i in range(len(ix) - 1)):
        # a top-level group whose tag never occurs further in has contiguous
        # rows in the rendering: one per inner label, one cell per index
        inner = {tag for pl in net.places() for tag, _ in pl.pairs[:-1]}
        in_order = {key: len(ix) for key, ix in groups
                    if len(ix) > 1 and not key[0] and key[1] not in inner}
        rest = [(key, ix) for key, ix in groups if key not in in_order]
        image, maps = None, dict.fromkeys(_place_map(net, net, a) for a in _arrangements(rest))
        maps = np.array(list(maps), dtype=np.intp).reshape(len(maps), len(net.places()))
    else:
        in_order, assignments = {}, _arrangements(groups)  # checks the bound
        image, maps = net._cache.get(_Images) or _images(net, assignments)
    places = (image or net).compiled().places
    # row c of perms inverts map c: the dense place that lands on each place
    perms = np.empty_like(maps)
    perms[np.arange(len(maps))[:, None], maps] = np.arange(len(places))
    # a sorted group's places, one row after another in place order, each
    # row one cell per index
    columns = tuple(
        np.array([j for j, pl in enumerate(places) if pl.pairs[-1][0] == tag],
                 dtype=np.intp).reshape(-1, k).T
        for (_suffix, tag), k in in_order.items()
    )
    ranks = np.empty(len(places), dtype=np.int64)
    ranks[sorted(range(len(places)), key=lambda j: str(places[j]))] = np.arange(len(places))
    form = net._cache[_NetForm] = _NetForm(image, perms, columns, ranks)
    return form


# most image cells (rows x candidates x places) that ``normalize_block``
# builds at once, so that its memory does not grow with the block
_CELLS = 1 << 16


def normalize_block(net: Net, block: np.ndarray) -> tuple[Net, np.ndarray]:
    """``normalize`` on every row of ``block``, an int64 matrix of marking
    vectors over ``net.compiled()``: the canonical net and the matrix of
    normal-form vectors over its compiled places, row by row.  A raw net's
    rows are gathered into its dense net's place order, and normalized there."""
    dense, gather = _dense(net)
    if dense is not None:
        net, block = dense, block[:, gather]
    form = _net_form(net)
    step = max(1, _CELLS // max(1, form.perms.size))
    out = np.empty_like(block)
    for start in range(0, len(block), step):
        out[start:start + step] = _least_images(form, block[start:start + step])
    return form.net or net, out


def _least_images(form: _NetForm, block: np.ndarray) -> np.ndarray:
    """Per row of ``block``, the candidate image, column-sorted, with the
    least rendering over the canonical net (see the module docstring)."""
    flat = block.ravel()
    inverse, first = _runs(np.lexsort((flat,)), flat)
    values = flat[first]
    # a cell's code: the rank of its count as a decimal string, or
    # ``empty``, above every rank, if it holds no tokens
    empty = len(values)
    rank = {v: r for r, v in enumerate(sorted(values.tolist(), key=str))}
    code = np.array([rank[v] if v else empty for v in values.tolist()], dtype=np.int64)
    count = np.zeros(empty + 1, dtype=np.int64)
    count[code] = values
    images = code[inverse].reshape(block.shape)[:, form.perms]
    # a column's key: its codes row by row, packed into one int64 if they fit
    for group in form.columns:
        cells = images[:, :, group]
        if (empty + 1) ** group.shape[1] <= _INT64_MAX + 1:
            key = cells[..., 0]
            for r in range(1, group.shape[1]):
                key = key * (empty + 1) + cells[..., r]
            order = key.argsort(axis=-1, kind="stable")
        else:
            order = np.lexsort(np.moveaxis(cells[..., ::-1], -1, 0), axis=-1)
        images[:, :, group] = np.take_along_axis(cells, order[..., None], axis=2)
    # each image's tokens (code, place rank) in place order, moved to the
    # front, then -1 past its last token
    present = images != empty
    rows, cands, places = np.nonzero(present)
    per_image = present.sum(axis=2).ravel()
    slot = np.arange(len(places)) - np.repeat(np.cumsum(per_image) - per_image, per_image)
    tokens = np.full(images.shape[:2] + (int(per_image.max(initial=0)),), -1, dtype=np.int64)
    tokens[rows, cands, slot] = (
        images[rows, cands, places] * images.shape[2] + form.ranks[places]
    )
    alive = np.ones(images.shape[:2], dtype=bool)
    for w in range(tokens.shape[2]):
        token = np.where(alive, tokens[:, :, w], _INT64_MAX)
        alive &= token == token.min(axis=1, keepdims=True)
    return count[images[np.arange(len(block)), alive.argmax(axis=1)]]


def _runs(order: np.ndarray, *keys) -> tuple:
    """Number the runs of equal entries (rows, for a matrix) of equal-length
    ``keys`` taken in ``order``: (each position's run, the first position
    of each run)."""
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        differs = ranked[1:] != ranked[:-1]
        new[1:] |= differs.any(axis=1) if differs.ndim > 1 else differs
    run = np.empty(len(order), dtype=np.int64)
    run[order] = np.cumsum(new) - 1
    return run, order[new]


def normalize_states(states: list) -> list:
    """The normal form of each (net, row) state, as such a state; the rows
    of one net are normalized as one block."""
    out = [None] * len(states)
    for net, (members, rows) in _by_net(states).items():
        canon, block = normalize_block(net, _block(net, rows))
        for i, row in zip(members, _rows(block)):
            out[i] = (canon, row)
    return out


def normalize(system: System) -> System:
    """The canonical representative of the system's automorphism class.

    This is the byte-order minimal rendering over all admissible
    assignments, the same system ``brute_force_normal`` returns; indices of
    every sibling group span 0..k-1 afterwards.  The column sort orders
    index strings like numbers only up to 10 siblings; larger groups still
    get one representative per class, which may not be the minimum.
    """
    (state,) = normalize_states([system._state()])
    return System.decoded(*state)


def normalize_marking(net: Net, marking: Bag) -> Bag:
    """Normal form of a marking over a net already in normal form."""
    canon, block = normalize_block(net, np.array([net.compiled().encode(marking)], dtype=np.int64))
    return canon.compiled().decode(block[0].tolist())


def apply_assignment(system: System, assignment: Assignment) -> System:
    """Relabel every place through per-group index maps (wreath semantics:
    lookups use each label's original suffix); an assignment that maps
    every index to itself returns the system itself."""
    if all(i == j for mapping in assignment.values() for i, j in mapping.items()):
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
    # (maps x places): per distinct place map of an assignment reaching
    # that net, the index in its compiled places of each raw place's image
    maps: np.ndarray


def _images(net: Net, assignments) -> _Images:
    """Every assignment's image of the net, reduced to the least one and
    the place maps that reach it; kept in ``net._cache``, so that the
    table is freed with the net."""
    best, maps = None, {}
    for assignment in assignments:
        image = apply_assignment(System(net), assignment).net
        if best is None or image.render() < best.render():
            best, maps = image, {}
        if image is best:
            maps[_place_map(net, best, assignment)] = None
    table = net._cache[_Images] = _Images(
        None if best is net else best,
        np.array(list(maps), dtype=np.intp).reshape(len(maps), len(net.places())),
    )
    return table


def brute_force_states(states: list, bound: int = _BOUND) -> list:
    """Testing oracle: the least image of each (net, row) state over every
    admissible index assignment, as such a state.

    For each sibling group all bijections of its index set onto 0..k-1 are
    tried (covering both permutation and re-densification); the systemOrder
    minimum is returned.  An image net depends only on the net, so the
    images are built once per net: the least image and the place maps of
    the assignments reaching it are kept with the net.  Each net's rows
    are renamed through every kept map at once, a chunk of rows at a time,
    and every image of a chunk is rendered in one ``CompiledNet.render``
    call; since ``System.key`` compares the net first, a row's least
    rendering is its least image.  The bound is checked per net on every
    call, before the table is used.
    """
    out = [None] * len(states)
    for net, (members, rows) in _by_net(states).items():
        assignments = _arrangements(sibling_groups(net), bound)
        table = net._cache.get(_Images) or _images(net, assignments)
        least = table.net or net
        maps, block = table.maps, _block(net, rows)
        # an image's rendering costs far more memory than its int64 cells,
        # so a chunk holds at most a quarter of ``_CELLS`` image cells: whole
        # rows, or the images of one row through a slice of the maps
        per = max(1, _CELLS // 4 // max(1, maps.shape[1]))
        step, cut = max(1, per // len(maps)), min(per, len(maps))
        for start in range(0, len(block), step):
            chunk = block[start:start + step]
            best = [None] * len(chunk)  # per row, (least text, its image) so far
            for first in range(0, len(maps), cut):
                some = maps[first:first + cut]
                # raw place j of a row lands on place some[m, j] of its image m
                images = np.empty((len(chunk),) + some.shape, dtype=np.int64)
                images[:, np.arange(len(some))[:, None], some] = chunk[:, None, :]
                texts = least.compiled().render(images.reshape(len(chunk) * len(some), -1))
                for r in range(len(chunk)):
                    mine = texts[r * len(some):(r + 1) * len(some)]
                    text = min(mine)
                    if best[r] is None or text < best[r][0]:
                        best[r] = (text, images[r, mine.index(text)].tobytes())
            for i, (_text, image) in zip(members[start:start + step], best):
                out[i] = (least, image)
    return out


def brute_force_normal(system: System, bound: int = _BOUND) -> System:
    """``brute_force_states`` on the one state of ``system``."""
    (state,) = brute_force_states([system._state()], bound)
    return System.decoded(*state)


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
