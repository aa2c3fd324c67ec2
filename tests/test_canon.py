import gc
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import rwspn
from rwspn import (
    Bag,
    Net,
    System,
    Transition,
    TransitionTag,
    apply_assignment,
    brute_force_normal,
    build_npl_sys,
    enab_set,
    explore,
    faulty_sys,
    fire,
    join,
    normalize,
    normalize_marking,
    npl_net,
    place,
    production_rules,
    random_admissible_assignment,
    repl_share,
    sibling_groups,
    system_order,
)
from rwspn import canon as canon_module
from rwspn.canon import (
    CanonBoundError,
    _arrangements,
    _dense,
    _Images,
    _net_form,
    _NetForm,
    brute_force_states,
    normalize_block,
    normalize_states,
)
from rwspn.rewrite import expand

from conftest import random_marking


def loader_of(net, pl_index):
    for t in net:
        if t.tag.tag == "ld" and any(p.pairs[-1] == ("PL", pl_index) for p in t.output.elements()):
            return t
    raise AssertionError


def test_two_replica_loader_example():
    # firing the second replica's loader yields a marking automorphic to the
    # first replica's; the normal form puts the loaded tokens on replica 0
    s = build_npl_sys(2, 2, 1)
    m1 = fire(loader_of(s.net, 1), s.marking)
    expected = Bag(
        {
            place(("o", 0), ("PL", 0)): 1,
            place(("o", 0), ("PL", 1)): 1,
            place(("w", 0), ("L", 0), ("PL", 0)): 1,
            place(("w", 0), ("L", 1), ("PL", 0)): 1,
        }
    )
    assert normalize_marking(s.net, m1) == expected
    assert normalize(System(s.net, m1)) == System(s.net, expected)
    # the two loader firings normalize identically
    m2 = fire(loader_of(s.net, 0), s.marking)
    assert normalize_marking(s.net, m2) == expected


def test_lexicographic_preference():
    s = build_npl_sys(2, 2, 1)
    m1 = fire(loader_of(s.net, 1), s.marking)
    m2 = normalize_marking(s.net, m1)
    assert System(s.net, m2).key < System(s.net, m1).key


def test_idempotent():
    rng = random.Random(3)
    net = npl_net(2, 2)
    for _ in range(100):
        s = normalize(System(net, random_marking(net, rng)))
        assert normalize(s) == s
        assert brute_force_normal(s) == s


def test_system_order_total():
    rng = random.Random(5)
    net = npl_net(2, 2)
    systems = [System(net, random_marking(net, rng)) for _ in range(30)]
    for a in systems:
        assert system_order(a, a) == 0
        for b in systems:
            assert system_order(a, b) == -system_order(b, a)
            for c in systems:
                if system_order(a, b) <= 0 and system_order(b, c) <= 0:
                    assert system_order(a, c) <= 0


def test_matches_brute_force_on_random_markings():
    rng = random.Random(17)
    net = npl_net(2, 2)
    for _ in range(400):
        s = System(net, random_marking(net, rng))
        assert normalize(s) == brute_force_normal(s)


def test_matches_brute_force_with_degraded_components():
    rng = random.Random(23)
    base = join(
        join(System(npl_net(2, 2)), faulty_sys(0)),
        faulty_sys(1),
    )
    for _ in range(250):
        s = System(base.net, random_marking(base.net, rng))
        assert normalize(s) == brute_force_normal(s)


def test_permutation_invariance():
    rng = random.Random(29)
    net = npl_net(2, 2)
    for _ in range(120):
        s = System(net, random_marking(net, rng))
        phi = random_admissible_assignment(s, rng)
        assert normalize(apply_assignment(s, phi)) == normalize(s)


def test_index_density_after_normalize():
    # remove the component with index 0; normalize renames 1 -> 0
    two = join(join(System(npl_net(1, 2)), faulty_sys(0)), faulty_sys(1))
    only1 = Bag({pl: c for pl, c in two.marking.items() if ("fPL", 0) not in pl.pairs})
    from rwspn import detach, faulty_pl

    net = detach(two.net, faulty_pl(two.net, 0))
    s = normalize(System(net, only1))
    for _key, indices in sibling_groups(s.net):
        assert indices == tuple(range(len(indices)))
    assert any(("fPL", 0) in pl.pairs for pl in s.net.places())
    assert not any(("fPL", 1) in pl.pairs for pl in s.net.places())


def test_marking_normalize_matches_full_normalize():
    rng = random.Random(31)
    net = normalize(System(npl_net(3, 2))).net
    for _ in range(200):
        m = random_marking(net, rng)
        full = normalize(System(net, m))
        assert full.net == net
        assert full.marking == normalize_marking(net, m)


def test_sibling_groups_structure():
    net = npl_net(2, 2)
    groups = dict(sibling_groups(net))
    assert groups[((), "PL")] == (0, 1)
    assert groups[((("PL", 0),), "L")] == (0, 1)
    assert groups[((("PL", 1),), "L")] == (0, 1)
    assert groups[((), "s")] == (0,)
    # deepest groups come first
    depths = [len(suffix) for (suffix, _tag), _ in sibling_groups(net)]
    assert depths == sorted(depths, reverse=True)


def test_brute_force_bound():
    net = npl_net(6, 2)
    with pytest.raises(CanonBoundError):
        brute_force_normal(System(net, Bag()), bound=10)


def test_empty_marking_normalizes_to_empty():
    net = npl_net(2, 2)
    assert normalize_marking(net, Bag()) == Bag()


def test_matches_brute_force_on_larger_nets():
    # three replicas, or three branches per replica: more admissible
    # assignments than a small enumeration covers
    rng = random.Random(43)
    for net in (npl_net(3, 2), npl_net(2, 3)):
        for _ in range(100):
            s = System(net, random_marking(net, rng))
            assert normalize(s) == brute_force_normal(s)


def test_permutation_invariance_three_replicas():
    rng = random.Random(37)
    net = npl_net(3, 2)
    for _ in range(60):
        s = System(net, random_marking(net, rng))
        base = normalize(s)
        assert base == brute_force_normal(s)
        assert normalize(base) == base
        for _ in range(5):
            phi = random_admissible_assignment(s, rng)
            assert normalize(apply_assignment(s, phi)) == base


def _move(src, dst, rate=1.0):
    return Transition(Bag({src: 1}), Bag({dst: 1}), Bag(), TransitionTag("t", 0, rate))


def test_distinct_sibling_subnets_counterexample():
    # four "X" siblings differ only in rate, so no permutation fixes the
    # net; swapping X1 and X2 gives an equivalent system with a different net
    net = Net(
        _move(place(("a", 0), ("X", i)), place(("b", 0), ("X", i)), rate=i + 1)
        for i in range(4)
    )
    s = System(net, Bag({place(("a", 0), ("X", 0)): 1}))
    swapped = apply_assignment(s, {((), "X"): {0: 0, 1: 2, 2: 1, 3: 3}})
    assert swapped.net != s.net
    assert normalize(swapped) == normalize(s) == brute_force_normal(s)


def test_ring_matches_brute_force():
    # X0 -> X1 -> X2 -> X0: only the rotations map the net to itself
    net = Net(
        _move(place(("p", 0), ("X", i)), place(("p", 0), ("X", (i + 1) % 3)))
        for i in range(3)
    )
    rng = random.Random(47)
    for _ in range(200):
        s = System(net, random_marking(net, rng, max_count=12))
        assert normalize(s) == brute_force_normal(s)


def test_net_pool_frees_candidate_images():
    # brute_force_normal builds one image net per assignment: 6! = 720 on a
    # 6-sibling ring, 120 of them distinct; the weak pool must not keep them
    net = Net(
        _move(place(("p", 0), ("X", i)), place(("p", 0), ("X", (i + 1) % 6)))
        for i in range(6)
    )
    s = System(net, Bag({place(("p", 0), ("X", 3)): 1}))

    def live_nets():
        gc.collect()
        return sum(isinstance(o, Net) for o in gc.get_objects())

    before = live_nets()
    assert brute_force_normal(s).marking == Bag({place(("p", 0), ("X", 0)): 1})
    assert live_nets() - before <= 2


@pytest.mark.parametrize("normalized", [False, True, "ring3", "gapped"])
def test_normal_form_is_freed_with_its_net(normalized):
    # the form is kept on the net, so normalizing does not pin the net;
    # the rate tells the cases' nets apart, which are interned otherwise.
    # No swap fixes a ring of 3, so it keeps the oracle's table next to its
    # form; neither refers back to the net, so no collector is needed. A
    # gapped net holds its dense net, which is freed with it
    x0, x1, x2 = place(("X", 0)), place(("X", 1)), place(("X", 2))
    if normalized == "ring3":
        net = Net(_move(place(("X", i)), place(("X", (i + 1) % 3)), rate=3.5) for i in range(3))
    elif normalized == "gapped":
        net = Net([_move(x0, x2, rate=4.5), _move(x2, x0, rate=4.5)])
    else:
        net = Net([_move(x0, x1, rate=2.0 + normalized), _move(x1, x0, rate=2.0 + normalized)])
    if normalized:
        assert _normal_marking(normalize, net, x2 if normalized == "gapped" else x1) == Bag({x0: 1})
    if normalized == "ring3":
        assert {_Images, _NetForm} <= net._cache.keys()
    alive = [weakref.ref(net)]
    if normalized == "gapped":
        alive.append(weakref.ref(net._cache[_dense][0]))
        assert _NetForm in alive[1]()._cache
    gc.collect()
    gc.disable()
    try:
        del net
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        gc.enable()


def test_mixed_depth_matches_brute_force():
    # tag "T" labels both the outermost level and the level inside it, and
    # a(T i) sorts between a(T 0 T i) and a(T 1 T i), so the rows of the
    # outer "T" group are not contiguous and its columns cannot be sorted
    inner = repl_share(Net([_move(place(("a", 0)), place(("b", 0)))]), 2, "T")
    body = Net(inner.transitions + (_move(place(("a", 0)), place(("b", 0))),))
    net = repl_share(body, 3, "T")
    rng = random.Random(53)
    for _ in range(200):
        s = System(net, random_marking(net, rng))
        assert normalize(s) == brute_force_normal(s)


def test_gapped_indices_densify_consistently():
    # removing a middle component leaves an index gap; normal forms of all
    # permuted variants agree and end up dense
    from rwspn import detach, subnet_by_pair

    rng = random.Random(41)
    net4 = npl_net(4, 2)
    gapped = detach(net4, subnet_by_pair(net4, ("PL", 1)))
    for _ in range(40):
        s = System(gapped, random_marking(gapped, rng))
        base = normalize(s)
        for _key, indices in sibling_groups(base.net):
            assert indices == tuple(range(len(indices)))
        for _ in range(5):
            phi = random_admissible_assignment(s, rng)
            assert normalize(apply_assignment(s, phi)) == base


def per_state_oracle(s):
    # the oracle's definition, with no per-net table: every assignment's
    # image of the whole system, least by System.key
    assignments = _arrangements(sibling_groups(s.net))
    return min((apply_assignment(s, a) for a in assignments), key=lambda c: c.key)


def _mixed_depth_net():
    inner = repl_share(Net([_move(place(("a", 0)), place(("b", 0)))]), 2, "T")
    body = Net(inner.transitions + (_move(place(("a", 0)), place(("b", 0))),))
    return repl_share(body, 3, "T")


def _gapped_net():
    from rwspn import detach, subnet_by_pair

    net4 = npl_net(4, 2)
    return detach(net4, subnet_by_pair(net4, ("PL", 1)))


def _ring(k):
    return Net(
        _move(place(("p", 0), ("X", i)), place(("p", 0), ("X", (i + 1) % k))) for i in range(k)
    )


@pytest.mark.parametrize(
    "make, seed, count",
    [(_mixed_depth_net, 53, 60), (_gapped_net, 41, 40), (lambda: _ring(6), 47, 6)],
    ids=["mixed-depth", "gapped", "ring6"],
)
def test_oracle_matches_its_per_state_definition(make, seed, count):
    # the per-net table keeps only the least image net and the maps that
    # reach it; the result must be what trying every image of every system gives
    net = make()
    rng = random.Random(seed)
    for _ in range(count):
        s = System(net, random_marking(net, rng, max_count=12))
        least = per_state_oracle(s)
        assert brute_force_normal(s) == least
        phi = random_admissible_assignment(s, rng)
        assert brute_force_normal(apply_assignment(s, phi)) == least


def test_oracle_checks_its_bound_on_every_call():
    # npl_net(3, 2) has 3! * 2!**3 = 48 admissible assignments
    s = System(npl_net(3, 2), Bag())
    assert brute_force_normal(s) == per_state_oracle(s)  # builds the net's table
    assert brute_force_normal(s, bound=48) == per_state_oracle(s)
    with pytest.raises(CanonBoundError) as exc:
        brute_force_normal(s, bound=10)
    assert (exc.value.total, exc.value.bound) == (48, 10)
    with pytest.raises(CanonBoundError):
        brute_force_normal(s, bound=47)
    # on a block, per net: the empty net has one assignment
    blocks = [System(Net())._state(), s._state()]
    expected = [System(Net())._state(), per_state_oracle(s)._state()]
    least = brute_force_states(blocks, bound=48)
    assert [net for net, _rows in least] == [net for net, _rows in expected]
    assert all(np.array_equal(rows, want) for (_n, rows), (_m, want) in zip(least, expected))
    for _ in range(2):
        with pytest.raises(CanonBoundError) as exc:
            brute_force_states(blocks, bound=47)
        assert (exc.value.total, exc.value.bound) == (48, 47)


def test_normalize_checks_its_bound_over_the_oracle_table(monkeypatch):
    # no swap fixes a ring of 3 (3! assignments), so normalize reads the
    # oracle's table; a table built first does not lift normalize's bound
    s = System(_ring(3), Bag())
    assert brute_force_normal(s) == per_state_oracle(s)  # builds the net's table
    monkeypatch.setattr(_arrangements, "__defaults__", (5,))
    with pytest.raises(CanonBoundError) as exc:
        normalize(s)
    assert (exc.value.total, exc.value.bound) == (6, 5)


def _string_ordered_marking(net, rng):
    # counts that order differently as strings and as numbers: "12" < "2", "10" < "9"
    places = net.places()
    chosen = rng.sample(places, rng.randint(0, len(places)))
    return Bag({pl: rng.choice((2, 9, 10, 12)) for pl in chosen})


@pytest.mark.parametrize("cells", [None, 1 << 11], ids=["rows", "map-slices"])
def test_brute_force_states_matches_the_per_state_oracle(cells, monkeypatch):
    # one interleaved list over several nets; the 130 rows of npl_net(3, 2)
    # (48 maps x 22 places per row) take several chunks of whole rows, and
    # at 2**11 cells each row's images take three chunks of maps
    if cells:
        monkeypatch.setattr("rwspn.canon._CELLS", cells)
    rng = random.Random(61)
    systems = [System(Net())]
    for net, count in ((_mixed_depth_net(), 20), (_gapped_net(), 20), (_ring(6), 6),
                       (npl_net(3, 2), 130)):
        systems += [System(net, _string_ordered_marking(net, rng)) for _ in range(count)]
    rng.shuffle(systems)
    # one block per run of one net's systems in the shuffled list, so a net
    # has several blocks
    blocks = [(net, np.concatenate([s._state()[1] for s in run]))
              for net, run in itertools.groupby(systems, key=lambda s: s.net)]
    least = brute_force_states(blocks)
    assert len(least) == len(blocks) > 4
    decoded = [System.decoded(net, row) for net, rows in least for row in rows]
    assert decoded == [per_state_oracle(s) for s in systems]
    assert brute_force_states([]) == []


def _rated_gapped_net(siblings=(0, 2, 3, 5), rate=2.0):
    # siblings 0, 2, 3 and 5 of "X"; sibling 3 has its own rate, so no swap
    # of it fixes the net, and the other three arrange every way
    return Net(
        _move(place(("a", 0), ("X", i)), place(("b", 0), ("X", i)),
              rate=rate if i == siblings[2] else 1.0)
        for i in siblings
    )


def _gapped_inner_net(k):
    # sibling j of "X" holds "a" siblings 0 and j + 1: densified, every
    # swap fixes the net, but no swap of two "X" siblings fixes it raw
    return Net(
        _move(place(("a", i), ("X", j)), place(("b", 0), ("X", j)))
        for j in range(k) for i in (0, j + 1)
    )


@pytest.mark.parametrize(
    "make, unfixed, count",
    [(lambda: _ring(3), True, 30), (lambda: _ring(6), True, 8), (_mixed_depth_net, False, 30),
     (_rated_gapped_net, True, 30), (lambda: _gapped_inner_net(3), False, 30)],
    ids=["ring3", "ring6", "mixed-depth", "rated-gapped", "gapped-inner"],
)
def test_normalize_states_matches_the_per_state_oracle(make, unfixed, count):
    # a net that some swap does not fix takes the oracle's table, so
    # normalize == brute_force_normal does not check its net choice on its
    # own; the per-state oracle builds no table. The mixed-depth net is
    # fixed by every swap, but its outer group is not column-sorted
    net = make()
    rng = random.Random(67)
    systems = [System(net, _string_ordered_marking(net, rng)) for _ in range(count)]
    (normal,) = normalize_states([(net, np.concatenate([s._state()[1] for s in systems]))])
    # the table sits on the dense net, which the raw net holds; a raw net
    # that is not dense builds none
    dense = _dense(net)[0] or net
    assert dense is _densified(net)
    assert (_Images in dense._cache) == unfixed
    assert dense is net or _Images not in net._cache
    canon, rows = normal
    assert [System.decoded(canon, row) for row in rows] == [per_state_oracle(s) for s in systems]


def _densify(net):
    # each sibling group renamed onto 0..k-1 in index order
    return {key: dict(zip(ix, range(len(ix)))) for key, ix in sibling_groups(net)}


def _densified(net):
    return apply_assignment(System(net), _densify(net)).net


def test_raw_form_is_its_dense_form_gathered():
    # a raw net decides no symmetry of its own and keeps no form: it holds
    # its dense net and the raw place that densifies onto each dense place,
    # and its rows normalize as those rows gathered onto the dense net; each
    # gapped net also with its indices shuffled, which makes densifying
    # reorder the places of the gapped inner net
    rng = random.Random(73)
    nets = []
    for net in (_gapped_net(), _rated_gapped_net(), _gapped_inner_net(3)):
        shuffled = apply_assignment(System(net), random_admissible_assignment(System(net), rng))
        nets += [net, shuffled.net]
    _ts, raws = _raw_targets(3)
    rule_targets = [net for net in raws if _densified(net) is not net]
    assert len(rule_targets) >= 5
    reordered = 0
    for net in nets + sorted(rule_targets, key=Net.render):
        dense = _densified(net)
        assert dense is not net
        gather = np.empty(len(net.places()), dtype=np.intp)
        for j, pl in enumerate(net.compiled().places):
            (image,) = apply_assignment(System(net, Bag({pl: 1})), _densify(net)).marking
            gather[dense.compiled().index[image]] = j
        if net in raws:
            block = np.concatenate(raws[net])
        else:
            marks = [_string_ordered_marking(net, rng) for _ in range(20)]
            block = np.array([net.compiled().encode(m) for m in marks], dtype=np.int64)
        before = set(net._cache)
        canon, normal = normalize_block(net, block)
        expected_canon, expected = normalize_block(dense, block[:, gather])
        assert canon is expected_canon and np.array_equal(normal, expected)
        # normalizing keeps only that pair on the raw net (the oracle's
        # table is there if another test gave the oracle this net)
        assert set(net._cache) - before <= {_dense} and _NetForm not in net._cache
        held, held_gather = net._cache[_dense]
        assert held is dense and np.array_equal(held_gather, gather)
        assert held_gather.shape == gather.shape and held_gather.dtype == np.intp
        reordered += not np.array_equal(gather, np.arange(len(gather)))
    assert reordered


def test_dense_net_table_is_built_once(monkeypatch):
    # two raw nets that densify onto one dense net, which no swap fixes and
    # whose least image is another net: normalized in turn, with no other
    # reference to the dense net, its oracle table is built once. The
    # counter holds no net
    calls = [0]
    images = canon_module._images

    def counted(net, assignments):
        calls[0] += 1
        return images(net, assignments)

    monkeypatch.setattr(canon_module, "_images", counted)
    rng = random.Random(79)
    raws = [_rated_gapped_net(siblings, rate=3.0) for siblings in ((0, 2, 3, 5), (1, 4, 6, 9))]
    assert _densified(raws[0]) is _densified(raws[1])
    gc.collect()
    for net in raws:
        states = [System(net, _string_ordered_marking(net, rng))._state()[1] for _ in range(10)]
        assert normalize_states([(net, np.concatenate(states))])[0][0] is not _dense(net)[0]
        gc.collect()
    assert calls == [1]


def test_symmetry_is_derived_once_per_dense_net():
    # every swap test of quotient N=4 runs on a dense net, and no swap of
    # any net runs twice, however many raw nets densify onto it; in a
    # process of its own, as nets that other tests keep alive hold their forms
    src = str(Path(rwspn.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import collections\n"
        "from rwspn import build_npl_sys, canon, explore, production_rules\n"
        "calls, dense, swap_fixes = collections.Counter(), set(), canon._swap_fixes\n"
        "def counted(net, key, ix, i):\n"
        "    calls[net.render(), key, i] += 1\n"
        "    dense.add(all(ix == tuple(range(len(ix))) for _, ix in canon.sibling_groups(net)))\n"
        "    return swap_fixes(net, key, ix, i)\n"
        "canon._swap_fixes = counted\n"
        "explore(build_npl_sys(4, 2, 2), production_rules(), mode='quotient')\n"
        "print(dense, max(calls.values()), sum(calls.values()), len({t for t, _, _ in calls}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    assert proc.stdout.split() == ["{True}", "1", "40", "13"]


def test_gapped_inner_groups_take_the_column_sort():
    # the swap test runs on the dense net, so its 8! arrangements of "X"
    # are column-sorted, not tried: 2**8 candidates, where trying every
    # assignment would exceed the bound (8! * 2**8 > 10**6)
    net = _gapped_inner_net(8)
    rng = random.Random(71)
    s = System(net, _string_ordered_marking(net, rng))
    base = normalize(s)
    dense, _gather = _dense(net)
    assert dense is _densified(net)
    assert _Images not in dense._cache
    assert len(_net_form(dense).perms) == 2**8
    for _ in range(5):
        phi = random_admissible_assignment(s, rng)
        assert normalize(apply_assignment(s, phi)) == base


def test_oracle_table_keeps_no_assignment():
    # the 384 admissible assignments of npl_net(4, 2) all reach the net
    # itself; the table keeps their place maps, not the assignments
    gc.collect()
    net = npl_net(4, 2)
    assert _Images not in net._cache
    places = net.places()
    state = System(net, Bag({places[0]: 2, places[5]: 1}))._state()
    tracemalloc.start()
    try:
        brute_force_states([state])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net._cache[_Images].maps.shape == (384, len(places))
    assert peak < 1.5 * 2**20


def _normal_marking(canon, net, marked):
    # a function of its own, so that no frame of the caller holds a result
    return canon(System(net, Bag({marked: 1}))).marking


@pytest.mark.parametrize("canon", [normalize, brute_force_normal])
def test_per_net_tables_free_their_net_without_the_collector(canon):
    # a net that is its own canonical net must not reach itself through
    # what is kept on it, or only the cyclic collector could free it
    x0, x1 = place(("X", 0)), place(("X", 1))
    rate = 4.0 + (canon is normalize)  # distinct nets per case; nets are interned
    net = Net([_move(x0, x1, rate=rate), _move(x1, x0, rate=rate)])
    gc.collect()
    gc.disable()
    try:
        assert _normal_marking(canon, net, x1) == Bag({x0: 1})
        alive = weakref.ref(net)
        del net
        assert alive() is None
    finally:
        gc.enable()


def _raw_firing_targets(system):
    return {System(system.net, fire(t, system.marking)) for t in enab_set(system)}


def test_normalize_matches_oracle_on_every_k3_firing_target():
    # every raw target of firing in the K=3 quotient state space (no rules)
    ts = explore(build_npl_sys(2, 3, 2), (), mode="quotient")
    targets = set().union(*map(_raw_firing_targets, ts.states))
    assert len(targets) == 501
    for s in sorted(targets):
        assert normalize(s) == brute_force_normal(s)


def test_normalize_matches_oracle_on_sampled_k4_firing_targets():
    # a seeded walk through the K=4 quotient state space checks every raw
    # firing target of the states it visits; 2! * (4!)**2 = 1,152 assignments
    rng = random.Random(71)
    state = normalize(build_npl_sys(2, 4, 2))
    checked = set()
    while len(checked) < 30:
        targets = sorted(_raw_firing_targets(state))
        for s in targets:
            if s not in checked:
                checked.add(s)
                assert normalize(s) == brute_force_normal(s)
        state = normalize(rng.choice(targets))
    assert len({normalize(s) for s in checked}) > 5


def _two_sorted_groups_net():
    # top-level groups "X" (4 rows: a/b over the inner "w" pair) and "Y"
    # (2 rows), both column-sorted; the inner "w" groups leave 2!**3 = 8
    # candidates per marking
    moves = [
        _move(place(("a", 0), ("w", w), ("X", i)), place(("b", 0), ("w", w), ("X", i)))
        for i in range(3) for w in range(2)
    ]
    moves += [_move(place(("c", 0), ("Y", j)), place(("d", 0), ("Y", j))) for j in range(3)]
    return Net(moves)


def _tall_group_net():
    # one column-sorted group of 17 rows: with 21 distinct counts in a
    # block, 23**17 > 2**63, so the column keys do not pack into an int64
    return Net(
        _move(place((f"r{r}", 0), ("Z", i)), place((f"r{r + 1}", 0), ("Z", i)))
        for i in range(3) for r in range(16)
    )


def _mixed_rows(net, rng, counts):
    # counts that order differently as strings and as numbers, an all-zero
    # row, columns that tie, and random rows
    places = net.compiled().places
    index = net.compiled().index
    by_col: dict = {}
    for pl in places:
        by_col.setdefault(pl.pairs[-1], []).append(index[pl])
    cols = sorted(by_col.values())
    rows = [[0] * len(places)]
    for a, b in ((2, 12), (9, 10), (12, 2), (10, 9)):
        row = [0] * len(places)
        row[cols[0][0]], row[cols[1][0]] = a, b
        rows.append(row)
        tie = list(row)
        tie[cols[2][0]] = a  # the first and the last column alike
        rows.append(tie)
    same = [0] * len(places)
    for col in cols:  # every column of each group alike
        for r, j in enumerate(col):
            same[j] = counts[r % len(counts)]
    rows.append(same)
    rows += [[rng.choice(counts) * (rng.random() < 0.5) for _ in places] for _ in range(60)]
    return np.array(rows, dtype=np.int64)


def _oracle_rows(net, block):
    out = []
    for vec in block:
        s = brute_force_normal(System.decoded(net, vec))
        out.append((s.net, s.net.compiled().encode(s.marking)))
    return out


@pytest.mark.parametrize(
    "make, counts",
    [
        (_two_sorted_groups_net, (1, 2, 9, 10, 12)),
        (_tall_group_net, (2, 12, 9, 10)),
        (_tall_group_net, tuple(range(1, 22))),
        (lambda: npl_net(3, 2), (1, 2, 9, 10, 12)),
    ],
    ids=["two-sorted-groups", "tall-packed", "tall-lexsort", "npl3"],
)
def test_block_matches_oracle_row_by_row(make, counts):
    net = make()
    block = _mixed_rows(net, random.Random(59), counts)
    canon, normal = normalize_block(net, block)
    expected = _oracle_rows(net, block)
    assert [(canon, tuple(row)) for row in normal.tolist()] == expected


def test_block_on_the_empty_net():
    canon, normal = normalize_block(Net(), np.zeros((3, 0), dtype=np.int64))
    assert canon is brute_force_normal(System(Net())).net
    assert normal.shape == (3, 0)


def _raw_targets(n):
    # the quotient state space, and the raw rows that firings and rules
    # reach from it, per target net
    ts = explore(build_npl_sys(n, 2, 2), production_rules(), mode="quotient")
    raws: dict = {}
    for store in ts._stores:
        steps, failures = expand(store.net, store.rows.astype(np.int64), production_rules())
        assert not failures
        for _rows, target, found, _rule, _how in steps:
            raws.setdefault(target, []).append(found)
    return ts, raws


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_equals_one_row_calls_on_every_raw_target(n):
    # every raw target of the quotient state space, normalized per target
    # net as one block (several chunks for the larger nets) and row by row
    ts, raws = _raw_targets(n)
    total = 0
    for target, parts in raws.items():
        block = np.concatenate(parts)
        total += len(block)
        canon, normal = normalize_block(target, block)
        for row, vec in zip(normal.tolist(), block.tolist()):
            one, alone = normalize_block(target, np.array([vec], dtype=np.int64))
            assert (canon, tuple(row)) == (one, tuple(alone[0].tolist()))
    assert total > len(ts) - 1
