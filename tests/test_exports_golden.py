"""Export digests pinned to the outputs of the object-level explorer.

Any change to exploration, canonicalization or generator assembly that
alters a byte of ``states.txt``, ``edges.txt`` or ``generator.coo`` for
these models fails here.  The digests were taken from the explorer that
fired and canonicalized on ``Bag`` markings, before the integer form; the ordinary N=3 digests were taken from the
explorer whose rules still matched and applied on decoded systems.

The ``solve`` cases pin ``measures.csv`` and ``generator.coo`` of
``rwspn solve --n N [--grid G --eps E]``; their digests were taken from the
uniformization that multiplied through ``pt @ vec`` with weights from
``exp(xlogy(k, mu) - gammaln(k + 1) - mu)``, except that the default-grid
N=3 and N=4 digests were taken from the uniformization that ran b mat-vecs
per kernel call, with weights from Fox–Glynn's recurrence.

Those files print rates and measures to 12 significant digits, so a change
in the last bit of the generator's diagonal or of ``transient`` passes
them.  ``SERIES_BITS`` and ``DIAGONAL_BITS`` pin those floats bit for bit;
they were taken from the diagonal summed by ``np.add.reduceat`` in scipy's
row-sum order.
"""

import hashlib

import numpy as np
import pytest

from rwspn import (
    build_generator,
    build_npl_sys,
    default_grid,
    explore,
    measure_series,
    production_rules,
    rewrite,
)
from rwspn.cli import main

from conftest import ordinary_ts, quotient_ts

# (mode, n, k, m) -> SHA-256 of states.txt, edges.txt, generator.coo;
# ("solve", n[, grid, eps]) -> SHA-256 of measures.csv, generator.coo
GOLDEN = {
    ("quotient", 1, 2, 2): (
        "9d077dab857f94a05e5631bd28937a371d926f10bf1c836f15cbbd1ae0d45ced",
        "edd4e5c690bde9a5c18b357de1fd67907abed7e58443ecc4f425ab5bef7201af",
        "4000af19610cbb10bdc3a65d04c9540878f0725f5b25c69c64b8840b3bbdeaf4",
    ),
    ("quotient", 2, 2, 2): (
        "ecbceb77ec51afdf9370e4ec8a69959fdbb406e5a9cee286363030a920d8eab9",
        "b22c469b30a05fc873a627ae41a51e8bfb2101c8c20f3f58bd7499fc3ee776bf",
        "53b49cd1f32826129a6e82ab06c84fb48cafc7d4f41f88f1e343798c463e66dc",
    ),
    ("quotient", 3, 2, 2): (
        "e002b2bab07504c855b91b9ea76ac211448e982458e1f8c5d0ece73c2bcf0198",
        "1362f24475132965a785a102eaaf1b1cf81ebe0539bf0079ca866d87f2a22c8e",
        "ec6f5633190ac15250da4fe821692b056e941c965cb87874edccbf62df831c8e",
    ),
    ("ordinary", 1, 2, 2): (
        "34ddcf3c956831e793104ed1e99f58d9ce2037b6bb2db255bb839a92355f4857",
        "9543b15d1a9b4226d1c8c91694ee5fbea9f5c6386f8fda535b5363fe5651d2e2",
        "65522b01bcdf8d206c97a78700e0ab97a0a580b530eb3a746106c956973caf3e",
    ),
    ("ordinary", 2, 2, 2): (
        "6152ac5860c0f43ccb0cdd47526994053ace5a96618f46a5f66644588970e585",
        "9b317aec64edcc70aedfbf7589bb02e0c4788f4e377ff5d1daf6149adb48e5e4",
        "ea91d210e7cdc9c00f8adc2089283c7d9bfa395f21658a702fc73920c20053d4",
    ),
    # the mode with the most rule matches: every r1 result is normalized
    ("ordinary", 3, 2, 2): (
        "47231f5296f74ae4cb2ba06a06e5d1f7dca901e1825de85d8dbd21533118cdbb",
        "b382c245ea1c5b34e937138ae67af31886e83a352b5ca0b94d4cad6fe148d6c1",
        "e7c643ff44f4afaa005899dc11893e3ce687ff39afa4fa3de548fc0b34708473",
    ),
    # firing only: the rules are defined for k = 2
    ("ordinary", 1, 3, 3): (
        "bcfbe9dacb04adf359fc0621256d6040ee5c63e2c8179e206e153bb31e0de987",
        "039e62b88f479f6ff045cd8f4182d84b92294163b4a1f75fc1a613f5cd68c7d4",
        "5aed9f6978699efd1e3431b2664bd8899607a563d3d422a6ec18c5f9417b3375",
    ),
    # the benchmark's explore-firing model (11,120 states) and its quotient
    ("ordinary", 2, 3, 3): (
        "d20835ec12dd56ad1e2a02054b94d127732a023452fedbead24162a8e1cb093d",
        "1140e29105e0463fc613de99fd64a7e589f020b0343e52caf7fb432df21f4770",
        "6d71812ea733a6565c87e7ed4c4df6c87c45f6521d8435319982082a40fe67a3",
    ),
    ("quotient", 2, 3, 3): (
        "4f374c6573caacaec1077dabd840015595aa95e0df853c3319d43fe2f02b1dc3",
        "cab7677ffa8c15880db6ac9e85b816435dd83eaa92e76b532e3c4544a7490af6",
        "eaadd57bebcf37253a95ff28f92232774a15b8766af121a18efeb16127793450",
    ),
    # solve at the default grid 1:10000:60 and eps 1e-9
    ("solve", 1): (
        "6586835deda9b30ae03e0ded48eb9c280a51fd6c4cbf41bc88c27a39c23697b4",
        "4000af19610cbb10bdc3a65d04c9540878f0725f5b25c69c64b8840b3bbdeaf4",
    ),
    ("solve", 2): (
        "40d1e9ecb99071603429910fcd17a2ee2373bb07acf2f76b4d775fce6a9da0af",
        "53b49cd1f32826129a6e82ab06c84fb48cafc7d4f41f88f1e343798c463e66dc",
    ),
    # the rings of b = 3 and b = 1 mat-vecs per kernel call
    ("solve", 3): (
        "7333a7118fbf3cca28daf54105d9c247626f53dcf0dc191e01ed9eed72c35ed3",
        "ec6f5633190ac15250da4fe821692b056e941c965cb87874edccbf62df831c8e",
    ),
    ("solve", 4): (
        "1461e7f9dfbd9d454d489ba6c44b1e282800ee4b781581cdf37f1d6e299f07e6",
        "3f1b8050905f53b1ee99544fe78c83fac255f1264c6cfcc5cd6be751a20fc0c3",
    ),
    ("solve", 2, "1:100000:100", "1e-12"): (
        "c68de92169789608648358749bfdcdffd8a0319e6e58116f8171b58981f1f4d0",
        "53b49cd1f32826129a6e82ab06c84fb48cafc7d4f41f88f1e343798c463e66dc",
    ),
}


def _explored(mode, n, k, m):
    if k == 2 and m == 2:
        return quotient_ts(n) if mode == "quotient" else ordinary_ts(n)
    return explore(build_npl_sys(n, k, m), (), mode=mode)


def _write_exports(case, out):
    """Write the files of ``case`` into ``out`` and return their names."""
    if case[0] == "solve":
        _, n, *grid_eps = case
        argv = ["solve", "--n", str(n), "--out", str(out)]
        if grid_eps:
            argv += ["--grid", grid_eps[0], "--eps", grid_eps[1]]
        assert main(argv) == 0
        return ("measures.csv", "generator.coo")
    ts = _explored(*case)
    ts.write_states(out / "states.txt")
    ts.write_edges(out / "edges.txt")
    build_generator(ts).write_coo(out / "generator.coo")
    return ("states.txt", "edges.txt", "generator.coo")


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_export_digests(case, tmp_path):
    names = _write_exports(case, tmp_path)
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names)
    assert got == GOLDEN[case]


@pytest.mark.parametrize("case", [("quotient", 2, 2, 2), ("ordinary", 1, 3, 3)],
                         ids=lambda c: "-".join(map(str, c)))
def test_export_digests_when_every_row_hash_collides(case, tmp_path, monkeypatch):
    # with a hash base of 0 every row hashes to 0: ``_distinct`` must sort
    # by counts, and each net's store must compare every stored row; the
    # budget of the 295 and 400 states turns a state found twice into an error
    monkeypatch.setattr(rewrite, "_HASH_BASE", 0)
    assert not rewrite._hash(np.eye(4, dtype=np.int64)).any()
    mode, n, k, m = case
    rules, budget = (production_rules(), 295) if k == 2 else ((), 400)
    ts = explore(build_npl_sys(n, k, m), rules, mode=mode, max_states=budget)
    ts.write_states(tmp_path / "states.txt")
    ts.write_edges(tmp_path / "edges.txt")
    build_generator(ts).write_coo(tmp_path / "generator.coo")
    names = ("states.txt", "edges.txt", "generator.coo")
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names)
    assert got == GOLDEN[case]


# SHA-256 of the throughput then reliability floats of the benchmark's solve
# model (solve --n 2 --grid 1:100000:100 --eps 1e-12)
SERIES_BITS = "ad9a2b11c7c9db4d5c79e59a6a492b1a9bf8617933512b32fa5d28b481baca1b"
# SHA-256 of the generator's diagonal at N=2
DIAGONAL_BITS = {
    "quotient": "6aef5520ea718f2c2c6bbf34e78a69dc75d2488b2c7f41c88f0cd4e81d2f2b6f",
    "ordinary": "3f3ced1cc76f2f3eb12970ea54b3f025b03cd62d31599ed1e561be78853fb5ac",
}


def _sha256(array) -> str:
    return hashlib.sha256(np.asarray(array).tobytes()).hexdigest()


def test_solve_series_bits():
    ts = quotient_ts(2)
    series = measure_series(ts, build_generator(ts), default_grid(100, 1.0, 1e5), eps=1e-12)
    assert _sha256(series.throughput + series.reliability) == SERIES_BITS


@pytest.mark.parametrize("mode", sorted(DIAGONAL_BITS))
def test_generator_diagonal_bits(mode):
    ts = quotient_ts(2) if mode == "quotient" else ordinary_ts(2)
    assert _sha256(build_generator(ts).diagonal) == DIAGONAL_BITS[mode]
