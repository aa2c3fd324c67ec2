import gc
import random
import weakref

import pytest

from rwspn import (
    Bag,
    Net,
    System,
    Transition,
    TransitionTag,
    apply_assignment,
    brute_force_normal,
    build_npl_sys,
    faulty_sys,
    fire,
    join,
    normalize,
    normalize_marking,
    npl_net,
    place,
    random_admissible_assignment,
    repl_share,
    sibling_groups,
    system_order,
)
from rwspn.canon import CanonBoundError

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


@pytest.mark.parametrize("normalized", [False, True])
def test_normal_form_is_freed_with_its_net(normalized):
    # the form is kept on the net, so normalizing does not pin the net;
    # the rate tells the two cases' nets apart, which are interned otherwise
    x0, x1 = place(("X", 0)), place(("X", 1))
    net = Net([_move(x0, x1, rate=2.0 + normalized), _move(x1, x0, rate=2.0 + normalized)])
    if normalized:
        assert normalize(System(net, Bag({x1: 1}))).marking == Bag({x0: 1})
    alive = weakref.ref(net)
    del net
    gc.collect()
    assert alive() is None


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
