"""Rewrite rules compiled per net, and the successor pass that both
``explore`` and the per-state functions below run.

``expand`` computes the raw firing successors and rule matches of a block
of marking vectors over one net.  ``_successors`` is the one place that
turns states, given as (net, int64 block) pairs, into labelled, normalized
successors: it runs ``expand`` on each block, labels each raw edge,
normalizes the distinct targets per target net and deduplicates what each
net receives.  It returns those targets and, per raw edge, the position
of its target; numbering states is left to its callers.  ``explore`` runs
it on each BFS level and gives each new target its id; ``to_augmented``,
``fire_agg`` and ``all_rewrites`` run it once on their one state and
decode the targets, and ``rule_app`` runs ``expand`` on one row."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bag import Bag
from .canon import _runs, normalize_block
from .net import Net, Place, System, _INT64_MAX, _TAG_RE

# odd base of the polynomial row hash (``_hash``)
_HASH_BASE = 0x9E3779B97F4A7C15

# Opaque rule-specific binding record; two matches are equal iff their
# bindings are equal.
Match = tuple


class InjectivityError(RuntimeError):
    """Two distinct matches of one rule produced the same raw result."""

    def __init__(self, tag: str, first: Match, second: Match):
        super().__init__(f"rule {tag!r}: matches {first!r} and {second!r} collide")
        self.tag = tag
        self.matches = (first, second)


class RuleSite(NamedTuple):
    """One match of a rule on a net, compiled to array arithmetic.

    ``need``, ``dead``, the rows of ``moves`` and ``absent`` index the
    compiled places and transitions of the source net; the columns of
    ``moves`` and the entries of ``fixed`` index the places of ``target``.
    The site matches a marking row that covers ``need`` and in which no
    ``dead`` transition has concession.  Its raw result is ``fixed`` plus
    the tokens left after taking ``need``, moved through the 0/1 matrix
    ``moves`` (a row of zeros drops them); a token left on an ``absent``
    place, one that is absent from the target, raises ``ValueError``, and
    so does a result count that does not fit in int64.
    """

    match: Match
    need: np.ndarray  # int64 count per source place that the match consumes
    dead: np.ndarray  # indices of the source transitions that must lack concession
    target: Net
    moves: np.ndarray  # int64 (source places x target places)
    absent: np.ndarray  # source places whose tokens have no target place
    fixed: np.ndarray  # int64 count per target place


def compile_site(
    net: Net,
    match: Match,
    need: Bag,
    dead: Net,
    target: System,
    dest: Callable[[Place], Place | None],
) -> RuleSite:
    """The site of a match on ``net``: the match consumes ``need`` and
    requires every transition of ``dead`` (a subnet) to lack concession;
    the result is the net of ``target``, marked by ``target``'s marking
    plus each remaining token of a place ``pl`` moved to ``dest(pl)``
    (``None`` drops it; a place absent from the target raises
    ``ValueError`` when a token is moved there)."""
    cnet, tnet = net.compiled(), target.net.compiled()
    subnet = set(dead.transitions)
    counts = np.zeros(len(cnet.places), dtype=np.int64)
    for pl, c in need.items():
        counts[cnet.index[pl]] = c
    moves = np.zeros((len(cnet.places), len(tnet.places)), dtype=np.int64)
    absent = []
    for i, pl in enumerate(cnet.places):
        to = dest(pl)
        if to is not None:
            j = tnet.index.get(to)
            if j is None:
                absent.append(i)
            else:
                moves[i, j] = 1
    return RuleSite(
        match,
        counts,
        np.array([k for k, t in enumerate(net.transitions) if t in subnet], dtype=np.intp),
        target.net,
        moves,
        np.array(absent, dtype=np.intp),
        np.array(tnet.encode(target.marking), dtype=np.int64),
    )


@dataclass(frozen=True)
class RewriteRule:
    """A net rewrite: label, rate, and the sites where it applies.

    ``sites(net)`` lists the rule's ``RuleSite``s on a net in match order;
    it runs once per net (``rule_sites``).  Sites must be built from
    symmetry-preserving operators so that results keep the symmetric
    labeling.  Results are raw (distinct per match); ``normalize_result``
    marks rules whose right-hand side ends in a normalization step, which
    matters only when states are not normalized anyway, i.e. in
    ordinary-mode exploration.
    """

    tag: str
    rate: float
    sites: Callable[[Net], Sequence[RuleSite]]
    normalize_result: bool = False

    def __post_init__(self):
        if not _TAG_RE.match(self.tag):
            raise ValueError(f"invalid rule tag {self.tag!r}")
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rule rate must be positive and finite, got {self.rate!r}")


def rule_sites(rule: RewriteRule, net: Net) -> tuple[RuleSite, ...]:
    """The rule's sites on ``net``, built on first use and kept with the net."""
    sites = net._cache.get(rule.sites)
    if sites is None:
        sites = net._cache[rule.sites] = tuple(rule.sites(net))
    return sites


def expand(net: Net, block: np.ndarray, rules: Sequence[RewriteRule]) -> tuple[list, list]:
    """The raw successors of every marking row of ``block``, an int64
    matrix over ``net.compiled()``: ``(steps, failures)``.  A step is
    ``(rows, target net, target rows, rule, how)``.

    ``_successors`` runs it on each of its blocks, and ``rule_app`` on a
    one-row block.  The first step is
    ``CompiledNet.step``'s firing: the enabled instances by row, then in
    net order; its rule is ``None`` and ``how`` holds the transition
    index of each row.  Then, in rule order and match order, one step per
    site with a matching row, its rows ascending; ``how`` is the site.  So
    the steps of one row list its successors in firing order, then rule
    order and match order.

    ``failures`` lists ``(row, error)`` for each row whose expansion
    fails, in row order, with the error that expanding that row alone
    raises first (rule order, then match order): the ``ValueError`` of a
    token left on a place absent from a site's target or of a result count
    past int64, or the ``InjectivityError`` of two matches of one rule with
    the same raw result.  A firing count past int64 raises at once
    (``CompiledNet.step``).
    """
    has, rows, ts, targets = net.compiled().step(block)
    steps = [(rows, net, targets, None, ts)]
    errors = []  # (row, rule number, site number, error)
    moved = int(block.max(initial=0)) * block.shape[1]  # bounds what a site moves onto a place
    for r, rule in enumerate(rules):
        found = []
        for s, site in enumerate(rule_sites(rule, net)):
            hit = np.flatnonzero((block >= site.need).all(axis=1) & ~has[:, site.dead].any(axis=1))
            if not hit.size:
                continue
            rest = block[hit] - site.need
            left = rest[:, site.absent] != 0
            for k in np.flatnonzero(left.any(axis=1)).tolist():
                i = site.absent[left[k].argmax()]
                errors.append((hit[k], r, s, ValueError(
                    f"result marks a place absent from the target net (source place {i})")))
            if moved + int(site.fixed.max(initial=0)) > _INT64_MAX:  # exact sums past the bound
                for k, j in np.argwhere(rest.astype(object) @ site.moves + site.fixed > _INT64_MAX):
                    errors.append((hit[k], r, s, ValueError(
                        f"result has a count that does not fit in int64 (target place {j})")))
            found.append((s, hit, site, site.fixed + rest @ site.moves))
        errors += _collisions(rule, r, found)
        steps += [(hit, site.target, raw, rule, site) for _s, hit, site, raw in found]
    failures: dict[int, Exception] = {}
    for row, _r, _s, error in sorted(errors, key=lambda e: e[:3]):
        failures.setdefault(int(row), error)
    return steps, list(failures.items())


def _collisions(rule: RewriteRule, r: int, found: list) -> list:
    """(row, rule number, site number, InjectivityError) for each site
    whose raw result, in some row, equals that of an earlier site."""
    by_target: dict[Net, list] = {}
    for entry in found:
        by_target.setdefault(entry[2].target, []).append(entry)
    errors = []
    for entries in by_target.values():
        if len(entries) < 2 or np.bincount(np.concatenate([e[1] for e in entries])).max() < 2:
            continue  # no row matches two sites with this target
        seen: dict[tuple, Match] = {}
        for s, hit, site, raw in entries:
            for key in zip(hit.tolist(), map(tuple, raw.tolist())):
                if key in seen:
                    errors.append((key[0], r, s, InjectivityError(rule.tag, seen[key], site.match)))
                else:
                    seen[key] = site.match
    return errors


def rule_app(rule: RewriteRule, system: System) -> tuple[tuple[Match, System], ...]:
    """All (match, raw result) pairs of one rule, without normalization.

    Raises InjectivityError if two matches yield the same raw system.
    """
    steps, failures = expand(*system._state(), (rule,))
    if failures:
        raise failures[0][1]
    return tuple(
        (site.match, System.decoded(target, raw[0]))
        for _rows, target, raw, _rule, site in steps[1:]
    )


def _successors(blocks: Sequence[tuple], rules: Sequence[RewriteRule], quotient: bool) -> tuple:
    """The successors of the states of ``blocks``, (net, int64 block)
    pairs, labelled and normalized: ``(targets, src, dst, fired, label,
    labels, rate)``.

    A state's position is the index of its row in the blocks taken one
    after another (a net may have several blocks).  Each block is expanded
    as one (``expand``).  Each array holds one entry per raw edge: its
    source's position, the position of its target in ``targets``, whether
    it is a firing (else a rule match), and the label (an index into
    ``labels``) and rate of its transition's tag or of its rule; a
    source's edges come in firing order, then rule order and match order.
    The raw targets are grouped per (target net, normalized); a group that
    is normalized (in ``quotient`` mode, or for a rule that normalizes) is
    deduplicated and normalized as one block (``normalize_block``).  Then
    the rows that each net receives are deduplicated (``_distinct``):
    ``targets`` lists each net and the int64 matrix of its distinct rows,
    in the order in which ``dst`` counts the rows.  If ``expand`` fails on
    a block, the error of its failing state with the least position is
    raised at once: no later block is expanded and no target normalized.
    """
    # what gives each kind of edge its label and rate: the rules, then
    # the transition tags of each net; per step, the kind of each edge
    tags, kinds, srcs = list(rules), [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    groups: dict = {}  # (target net, normalized) -> ([edge positions], [raw target rows])
    offset, start = 0, 0  # the raw edges so far; the position of the block's first state
    for net, block in blocks:
        steps, failures = expand(net, block, rules)
        if failures:
            raise failures[0][1]
        base = len(tags)
        tags += [t.tag for t in net.transitions]
        for rows, target, raws, rule, how in steps:
            if not len(rows):
                continue
            srcs.append(rows + start)
            kinds.append(how + base if rule is None else np.full(len(rows), rules.index(rule)))
            normalized = quotient or (rule is not None and rule.normalize_result)
            at, parts = groups.setdefault((target, normalized), ([], []))
            at.append(np.arange(offset, offset + len(rows)))
            parts.append(raws)
            offset += len(rows)
        start += len(block)
        del block, steps, raws  # the groups hold the raw rows, each once
    by_net: dict = {}  # target net -> ([(edge positions, row of each among the net's)], [rows])
    for (net, normalized), (at, parts) in groups.items():
        raws = parts[0] if len(parts) == 1 else np.concatenate(parts)
        parts.clear()
        row = np.arange(len(raws))
        if normalized:
            row, first = _distinct(raws)
            net, raws = normalize_block(net, raws[first])
        edges, kept = by_net.setdefault(net, ([], []))
        edges.append((np.concatenate(at), row + sum(map(len, kept))))
        kept.append(raws)
    targets, count = [], 0  # (net, distinct rows) per net; the rows so far
    dst = np.empty(offset, dtype=np.int64)
    for net, (edges, parts) in by_net.items():
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        parts.clear()
        inverse, first = _distinct(rows)
        for at, row in edges:
            dst[at] = inverse[row] + count
        count += len(first)
        targets.append((net, rows[first]))
    src, kind = np.concatenate(srcs), np.concatenate(kinds)
    label_of: dict[str, int] = {}
    label = np.array([label_of.setdefault(t.tag, len(label_of)) for t in tags], dtype=np.int64)
    rate = np.array([t.rate for t in tags], dtype=float)
    return targets, src, dst, kind >= len(rules), label[kind], list(label_of), rate[kind]


def _hash(rows: np.ndarray) -> np.ndarray:
    """The int64 hash of each row of an int64 matrix: its counts weighted
    by the powers of ``_HASH_BASE``.  uint64 and int64 array arithmetic
    wraps, as a hash may."""
    return rows @ np.full(rows.shape[1], _HASH_BASE, dtype=np.uint64).cumprod().view(np.int64)


def _distinct(rows: np.ndarray) -> tuple:
    """``_runs`` of the rows of an int64 matrix, sorted by their hash
    (``_hash``), so equal rows are neighbours unless two different rows
    share a hash; if two runs do, the rows are sorted by hash and then by
    every count.  So a collision neither merges two rows nor splits one."""
    hashes = _hash(rows)
    run, first = _runs(np.lexsort((hashes,)), rows)
    if (np.diff(hashes[first]) == 0).any():
        run, first = _runs(np.lexsort((*rows.T, hashes)), rows)
    return run, first


def fire_agg(system: System) -> dict[Bag, dict[str, float]]:
    """Cumulative firing effect: normalized target marking -> per-tag rates.

    Enabled instances are grouped by the normal form of the marking they
    produce and by tag text; rates of instances in a group are summed in
    net iteration order.
    """
    return to_augmented(system).firing_targets


def all_rewrites(system: System, rules: Sequence[RewriteRule]) -> dict[System, dict[str, float]]:
    """Bulk rule application: normalized target system -> per-rule rates."""
    return to_augmented(system, rules).rewrite_targets


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
    """Augmented form of a system already in normal form: one
    ``_successors`` pass over its state, which raises the first failure
    of its rule matches."""
    targets, _src, dst, fired, label, labels, rate = _successors([system._state()], rules, True)
    targets = [(net, row) for net, rows in targets for row in rows]
    firing, rewrites = {}, {}  # normal target marking or system -> label -> rate
    for k, fire, lab, r in zip(dst.tolist(), fired.tolist(), label.tolist(), rate.tolist()):
        target = System.decoded(*targets[k])
        per = firing.setdefault(target.marking, {}) if fire else rewrites.setdefault(target, {})
        per[labels[lab]] = per.get(labels[lab], 0.0) + r
    return AugmentedState(system.net, system.marking, firing, rewrites)
