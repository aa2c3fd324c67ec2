"""Lumped CTMC assembly, strong-lumpability checks, transient solution by
uniformization, and the throughput/reliability measures."""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from itertools import cycle
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .canon import _runs
from .statespace import _SLICE, TransitionSystem, _write_lines


def _load_csr_matvec():
    """scipy's compiled CSR mat-vec, loaded from the file of its extension
    module ``scipy.sparse._sparsetools``, since importing that module runs
    ``scipy.sparse`` first, which no command needs.  ``find_spec`` finds
    scipy's folder without importing it.  The plain import is the fallback
    when the file is not there or the module is already imported."""
    name = "scipy.sparse._sparsetools"
    scipy = None if name in sys.modules else find_spec("scipy")
    for folder in scipy and scipy.submodule_search_locations or ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(folder, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = ExtensionFileLoader(name, path)
                module = module_from_spec(spec_from_loader(name, loader))
                loader.exec_module(module)
                # left in sys.modules, the module would not be bound on the
                # package by a later import of scipy.sparse, which now makes
                # its own, with these same functions
                sys.modules.pop(name, None)
                return module.csr_matvec
    from scipy.sparse._sparsetools import csr_matvec

    return csr_matvec


csr_matvec = _load_csr_matvec()


def _fmt(x: float) -> str:
    return format(x, ".12g")


class LumpabilityError(RuntimeError):
    """The partition is not strongly lumpable at the requested tolerance."""

    def __init__(self, detail: dict):
        super().__init__(f"strong lumpability violated: {detail}")
        self.detail = detail


class TransientBudgetError(RuntimeError):
    """Requested accuracy needs more uniformization terms than allowed."""


class Generator:
    """Sparse CTMC infinitesimal generator.

    Off-diagonal entries are nonnegative rates, held as the CSR arrays
    ``indptr``, ``indices`` and ``data``; every diagonal entry is the
    negated row sum, so rows sum to zero exactly.
    """

    def __init__(self, n: int, offdiag: dict[tuple[int, int], float]):
        # ``np.fromiter`` would cast 0.5 to 0 and True to 1
        for i in (i for key in offdiag for i in key):
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                raise ValueError(f"state index {i!r} is not an int")
        rows = np.fromiter((i for i, _ in offdiag), dtype=np.int64, count=len(offdiag))
        cols = np.fromiter((j for _, j in offdiag), dtype=np.int64, count=len(offdiag))
        data = np.fromiter(offdiag.values(), dtype=np.float64, count=len(offdiag))
        self._build(n, rows, cols, data)

    @classmethod
    def _from_arrays(cls, n: int, rows, cols, data) -> "Generator":
        """From off-diagonal entries as arrays, each (row, col) at most once."""
        self = cls.__new__(cls)
        self._build(n, rows, cols, data)
        return self

    def _build(self, n: int, rows, cols, data) -> None:
        data = np.asarray(data, dtype=np.float64)
        if len(rows) and not (0 <= min(rows.min(), cols.min()) and max(rows.max(), cols.max()) < n):
            raise ValueError(f"state index outside 0..{n - 1}")
        if np.any(rows == cols):
            raise ValueError("diagonal entry among the off-diagonal rates")
        if not np.all(np.isfinite(data)):
            raise ValueError("non-finite off-diagonal rate")
        if np.any(data < 0):
            raise ValueError("negative off-diagonal rate")
        # canonical CSR: row-major, sorted indices, no duplicates
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        twice = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
        if len(twice):
            raise ValueError(f"entry {(int(rows[twice[0]]), int(cols[twice[0]]))} given twice")
        self.n, self.indptr = n, np.searchsorted(rows, np.arange(n + 1))
        self.indices, self.data = cols, data[order]
        # each row summed as scipy's row sum does: its first rate plus the
        # pairwise sum of the rest, which can differ in the last bit from
        # one sum in column order from 0.0
        busy = np.flatnonzero(np.diff(self.indptr))
        self.diagonal = np.full(n, -0.0)
        self.diagonal[busy] = -np.add.reduceat(self.data, self.indptr[busy])
        self._live = self.diagonal != 0  # states with a nonzero exit rate
        self._uniformized = None

    def _rows(self) -> np.ndarray:
        """The row of each off-diagonal entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @cached_property
    def offdiag(self):
        """The off-diagonal part as scipy CSR, built on first read; no command reads it."""
        from scipy.sparse import csr_matrix

        return csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))

    @cached_property
    def matrix(self):
        """Q with its diagonal as scipy CSR, built on first read; no command reads it."""
        from scipy.sparse import diags

        return (self.offdiag + diags(self.diagonal)).tocsr()

    @property
    def max_exit_rate(self) -> float:
        return float(-self.diagonal.min()) if self.n else 0.0

    def entries(self):
        """Off-diagonal entries as sorted (i, j, rate) triples."""
        return tuple(zip(self._rows().tolist(), self.indices.tolist(), self.data.tolist()))

    def write_coo(self, path) -> None:
        # each slice of entries numbers its own distinct rates, one repr each,
        # by bit pattern since 0.0 == -0.0, and looks its rows up in
        # ``indptr``, so no array of the entries' length is built; the stable
        # sort is the kernel that ``np.lexsort`` has loaded, where the
        # default one loads another (0.2 MB more peak RSS on ``solve``)
        with open(path, "w") as fh:
            fh.write(f"{self.n}\n")
            for at in range(0, len(self.data), _SLICE):
                data = self.data[at:at + _SLICE]
                bits = data.view(np.int64)
                rate, first = _runs(np.argsort(bits, kind="stable"), bits)
                rows = np.searchsorted(self.indptr, np.arange(at, at + len(data)), "right") - 1
                _write_lines(fh, [f" {r!r}\n" for r in data[first].tolist()],
                             rows, self.indices[at:at + len(data)], rate)


def _edge_rates(ts: TransitionSystem) -> np.ndarray:
    """The rate of every edge of ``ts``, in edge order."""
    return np.array([rate for _label, rate in ts.kinds], dtype=np.float64)[ts.kind]


def build_generator(ts: TransitionSystem) -> Generator:
    """Q[i, j] = total rate of the i -> j edges; self-loops cancel and are
    dropped.

    The edges are sorted by (src, dst), so each run of parallel edges is
    adjacent; ``np.bincount`` sums it in edge order.
    """
    keep = ts.src != ts.dst
    src, dst = ts.src[keep], ts.dst[keep]
    run, first = _runs(np.arange(len(src)), src, dst)
    data = np.bincount(run, weights=_edge_rates(ts)[keep])
    src, dst = src[first], dst[first]
    # freed before the generator sorts, or they would add to its peak
    del keep, run, first
    return Generator._from_arrays(len(ts), src, dst, data)


def _sum_runs(key: np.ndarray, weights: np.ndarray) -> tuple:
    """The distinct values of ``key``, ascending, and the sum of each one's
    ``weights``, added in array order from 0.0 (float64, even when empty)."""
    run, first = _runs(np.argsort(key, kind="stable"), key)
    return key[first], np.bincount(run, weights=weights, minlength=len(first)).astype(np.float64)


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple:
    """The positions, in CSR arrays with ``indptr``, of the entries of each
    of ``rows`` in turn, and each row's count of entries."""
    start, count = indptr[rows], indptr[rows + 1] - indptr[rows]
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum()), count


def _class_flows(gen: Generator, partition: Sequence[int], tol: float):
    """F = Q·V for the 0/1 state-to-class matrix V of ``partition``, and
    the first breach of strong lumpability in it.

    Row i of F is the rate from state i into each class; the diagonal of Q
    never enters it.  Each entry of F sums its rates in column order from
    0.0, and sums that come out 0 are left out, as in scipy's CSR product.
    The partition is strongly lumpable iff every row is within ``tol`` of
    the row of its class's first state.  Returns
    ``(labels, first, flows, detail)``: the sorted class labels, each
    class's first state, F as CSR arrays ``(indptr, indices, data)``, and
    None or the counterexample at the smallest breaching state and, within
    it, the smallest target class, with the worst |F - F[rep]| over every
    entry as ``max_deviation``.
    ``tol`` must be finite and nonnegative, else ``ValueError``.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    part = np.asarray(partition, dtype=np.int64)
    if len(part) != gen.n:
        raise ValueError("partition must cover all states")
    labels, first, cls = np.unique(part, return_index=True, return_inverse=True)
    m = max(len(labels), 1)
    key, data = _sum_runs(gen._rows() * m + cls[gen.indices], gen.data)
    key, data = key[data != 0], data[data != 0]
    rows, indices = np.divmod(key, m)
    indptr = np.searchsorted(rows, np.arange(gen.n + 1))
    flows = indptr, indices, data
    # each row minus its class's first row, over the entries of either
    at, count = _row_entries(indptr, first[cls])
    rep_key = np.repeat(np.arange(gen.n) * m, count) + indices[at]
    dev_key, dev = _sum_runs(np.concatenate((key, rep_key)), np.concatenate((data, -data[at])))
    bad = np.flatnonzero(np.abs(dev) > tol)
    if not len(bad):
        return labels, first, flows, None
    i, target = divmod(int(dev_key[bad[0]]), m)
    rep = int(first[cls[i]])
    return labels, first, flows, {
        "class": int(labels[cls[i]]),
        "states": (rep, i),
        "target_class": int(labels[target]),
        "rates": tuple(float(data[key == s * m + target].sum()) for s in (rep, i)),
        "max_deviation": float(np.abs(dev).max()),
    }


def check_strong_lumpability(
    gen: Generator, partition: Sequence[int], tol: float = 1e-9
) -> tuple[bool, dict | None]:
    """Check that cumulative outflow rates into every class are constant
    within each class.

    The diagonal never participates (flows inside a state's own class count
    only the off-diagonal part).  Members are compared against the first
    state of their class at tolerance ``tol``.  Returns (ok, counterexample);
    a counterexample's ``max_deviation`` is the worst deviation of any entry.
    """
    detail = _class_flows(gen, partition, tol)[3]
    return detail is None, detail


def lump_generator(gen: Generator, partition: Sequence[int], tol: float = 1e-9) -> Generator:
    """The lumped generator of a strongly lumpable partition.

    Entry [C, C'] is the representative row sum into C'; flows inside a class
    contribute to the diagonal only.
    """
    labels, first, (indptr, indices, data), detail = _class_flows(gen, partition, tol)
    if detail is not None:
        raise LumpabilityError(detail)
    if not np.array_equal(labels, np.arange(len(labels))):
        raise ValueError("class ids must be 0..m-1")
    at, count = _row_entries(indptr, first)
    rows, cols, data = np.repeat(np.arange(len(labels)), count), indices[at], data[at]
    keep = rows != cols
    return Generator._from_arrays(len(labels), rows[keep], cols[keep], data[keep])


# share of the truncation budget ``eps`` given to the left Poisson tail
_LEFT_SHARE = 1e-3

# ``_poisson_window`` leaves out at most exp(-_TAIL) of Poisson mass per side
_TAIL = 82.0


def _poisson_window(mu: float, eps: float) -> tuple[int, int, np.ndarray]:
    """Fox–Glynn truncation window ``(left, right, weights)`` of Poisson(mu).

    ``left`` is the largest point whose left tail P(K < left) is at most
    ``_LEFT_SHARE * eps``; ``right`` is the smallest point whose right tail
    P(K > right) is below ``eps`` minus that left tail.  So less than ``eps``
    of Poisson mass lies outside ``left..right``.

    ``weights`` are the Poisson(mu) weights of ``left..right``, normalized
    to sum to 1, from Fox–Glynn's recurrence: 1 at the mode, ·k/mu going
    down, ·mu/(k+1) going up, so no factor exceeds 1.  The rounding error
    grows with the distance from the mode, not with mu as in
    exp(k log mu - log k! - mu), and the weights are off the pmf in L1 by
    the mass outside the window.

    The tails are sums of the recurrence over ``lo..hi``, each summed from
    its far end.  By Chernoff's bound P(K <= mu - x) <= exp(-x²/(2 mu)) and
    Bernstein's P(K >= mu + x) <= exp(-x²/(2 (mu + x/3))), the ends
    lo = mu - sqrt(2 c mu) and hi = mu + c/3 + sqrt(c²/9 + 2 c mu), with
    c = ``_TAIL``, leave out at most 2 exp(-82) < 4.9e-36 of Poisson mass:
    less than 2**-53 · ``_LEFT_SHARE`` · 2**-54 = 6.2e-36, the rounding unit
    of the smallest left-tail threshold, as eps > 2**-54.
    """
    lo = max(0, math.floor(mu - math.sqrt(2 * _TAIL * mu)))
    hi = math.ceil(mu + _TAIL / 3 + math.sqrt((_TAIL / 3) ** 2 + 2 * _TAIL * mu))
    mode = int(mu)
    below = (np.arange(mode, lo, -1) / mu).cumprod()[::-1]
    above = (mu / np.arange(mode + 1, hi + 1)).cumprod()
    weights = np.concatenate((below, (1.0,), above))  # lo..hi
    head = below.cumsum()  # head[i]: mass of lo..lo+i, left of the mode
    tail = weights[::-1].cumsum()  # tail[i]: mass of hi-i..hi
    total = tail[-1]
    n = int(head.searchsorted(_LEFT_SHARE * eps * total, "right"))
    budget = eps * total - (head[n - 1] if n else 0.0)
    left, right = lo + n, hi - int(tail.searchsorted(budget, "left"))
    weights = weights[left - lo:right - lo + 1]
    return left, right, weights / weights.sum()


# most uniformization terms ``transient`` runs for one step
_MAX_TERMS = 2_000_000

# ``transient`` runs b = max(1, _RING // nnz(Pᵀ)) mat-vecs per kernel call, so
# that a call reads about _RING entries of Pᵀ, or once Pᵀ when it has more
_RING = 2**14


def _check_eps(eps: float) -> None:
    """Reject an accuracy that ``transient`` cannot honor."""
    # at or below 2**-54, 1 - eps rounds to 1 and the window has no right end
    if not 2.0**-54 < eps < 1:
        raise ValueError(f"eps must lie in (2**-54, 1), got {eps!r}")


def _p_transposed(gen: Generator, lam: float) -> SimpleNamespace:
    """Pᵀ = (I + Q/Λ)ᵀ as CSR arrays, bit for bit scipy's ``(sp.eye(n) +
    gen.matrix / lam).T.tocsr()``: Q/Λ is Q·(1/Λ), the zeros it makes are
    left out, and the indices are int32 while they fit."""
    n, scale = gen.n, 1 / lam
    off = gen.data * scale
    keep = off != 0
    rows = np.concatenate((gen.indices[keep], np.arange(n)))  # the rows of Pᵀ
    cols = np.concatenate((gen._rows()[keep], np.arange(n)))
    order = np.lexsort((cols, rows))
    dtype = np.int32 if max(len(rows), n) <= np.iinfo(np.int32).max else np.int64
    return SimpleNamespace(indptr=np.searchsorted(rows[order], np.arange(n + 1)).astype(dtype),
                           indices=cols[order].astype(dtype),
                           data=np.concatenate((off[keep], 1.0 + gen.diagonal * scale))[order])


def _ring(pt, b: int) -> tuple:
    """``(b, indptr, indices, data)``: 2b copies of the n×n CSR matrix
    ``pt`` (anything with ``indptr``, ``indices`` and ``data``) in one CSR
    matrix, in which the rows of block j read the columns of block j - 1
    mod 2b.

    ``transient`` makes every kernel call in one shape: the rows of b
    consecutive blocks, reading and writing one vector of 2b·n entries, so
    that one call runs b mat-vecs.  That holds only if the kernel reads and
    writes that vector in row order, so one such call is checked here, at
    every b, against b separate mat-vecs, and ``RuntimeError`` raised if
    they differ in a bit.  The indices keep ``pt``'s dtype while 2b·nnz
    fits in int32, and are int64 past that.
    """
    n, nnz = len(pt.indptr) - 1, len(pt.data)
    dtype = np.int64 if 2 * b * nnz > np.iinfo(np.int32).max else pt.indices.dtype
    blocks = np.arange(2 * b, dtype=dtype)[:, None]
    indptr = np.empty(2 * b * n + 1, dtype=dtype)
    np.add(pt.indptr[:-1], nnz * blocks, out=indptr[:-1].reshape(2 * b, n))
    indptr[-1] = 2 * b * nnz
    indices = np.empty(2 * b * nnz, dtype=dtype)
    np.add(pt.indices, n * np.roll(blocks, 1), out=indices.reshape(2 * b, nnz))
    data = np.empty(2 * b * nnz)
    data.reshape(2 * b, nnz)[:] = pt.data
    # one call that fills b blocks against b mat-vecs on separate vectors;
    # the entries of x, and of every P^k x, are positive, as P's diagonal is
    x = np.arange(1.0, n + 1)
    steps = np.zeros((b + 1, n))
    steps[0] = x
    for k in range(b):
        csr_matvec(n, n, pt.indptr, pt.indices, pt.data, steps[k], steps[k + 1])
    v = np.zeros(2 * b * n)
    v[-n:] = x
    csr_matvec(b * n, 2 * b * n, indptr, indices, data, v, v[:b * n])
    if v[:b * n].tobytes() != steps[1:].tobytes():
        raise RuntimeError("scipy's csr_matvec does not read and write one vector in row order")
    return b, indptr, indices, data


def transient(
    gen: Generator,
    pi0: Sequence[float],
    t: float,
    eps: float = 1e-9,
    details: dict | None = None,
) -> np.ndarray:
    """Transient distribution pi0 * exp(Q t) by uniformization.

    With P = I + Q / Λ, Λ = 1.02 × the largest exit rate and mu = Λt, the
    result is the sum of w[k] · pi0 P^k over the Fox–Glynn window
    ``left..right`` of ``_poisson_window``, with its Poisson(mu) weights w.
    The mass δ outside the window is below ``eps`` and the weights are
    within δ of the pmf in L1, so the result is within 2δ in L1; it is
    then clipped to nonnegative and renormalized.  The mat-vecs below
    ``left`` still run, but add nothing to the sum.
    ``details`` receives ``raw_mass`` (before renormalization; it differs
    from 1 by the mat-vecs' rounding drift), ``terms``, the number of
    series terms ``right + 1`` (the kernel may run up to b - 1 more steps),
    and ``left``.  ``t`` must be finite and nonnegative, ``eps`` in
    (2**-54, 1), and ``pi0`` a distribution: finite, nonnegative entries
    whose sum is within 1e-9 of 1, else ``ValueError``.
    ``TransientBudgetError`` is raised when mu >= ``_MAX_TERMS`` or the
    window needs more than ``_MAX_TERMS`` terms.

    The mat-vecs run b at a time, b = max(1, ``_RING`` // nnz(Pᵀ)), on the
    ``_ring`` of Pᵀ, built once per generator: every call of scipy's CSR
    kernel has one shape and fills one half of a vector of 2b blocks, each
    block Pᵀ times the block before it, and the calls alternate halves.
    The kernel starts each row's sum at the zeroed output and adds the
    row's products in order, so every step runs the floating-point
    operations of one ``Pᵀ @ x``.  Every call runs all its b steps: the
    calls wholly below ``left`` only run the kernel, and the rest weight
    each step from one array, zero outside ``left..right``, and add the
    terms into the sum one step at a time.  A zero weight makes a term of
    ±0.0, as every entry of P^k x is finite, and adding ±0.0 leaves any
    number but -0.0 unchanged; the sum starts at +0.0, and a sum of two
    numbers rounded to nearest is -0.0 only if both are, so it never is.
    So the result is the same to the bit for every b.

    Absorbed-mass shortcut: if the mass m of pi0 on states with a nonzero
    exit rate is at most eps/2, pi0 is returned unchanged, with ``terms`` 0.
    The absorbing states gain some g <= m, and the rest, of mass m before
    and m - g after, moves by at most 2m - g, so the L1 error is at most
    2m <= eps.  A chain without absorbing states never takes the shortcut.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")
    _check_eps(eps)
    pi = np.array(pi0, dtype=np.float64)
    if pi.shape != (gen.n,):
        raise ValueError(f"pi0 must have length {gen.n}")
    if not ((pi >= 0).all() and abs(pi.sum() - 1) <= 1e-9):  # NaN >= 0 is False
        raise ValueError("pi0 must have finite, nonnegative entries summing to 1")
    if t == 0 or pi[gen._live].sum() <= eps / 2:
        if details is not None:
            details.update(raw_mass=float(pi.sum()), terms=0, left=0)
        return pi
    lam = 1.02 * gen.max_exit_rate
    mu = lam * t
    # the window reaches about mu, and the Poisson quantiles are NaN for
    # mu past about 1e12, so a huge mu is refused before they are asked
    if mu >= _MAX_TERMS:
        raise TransientBudgetError(
            f"mu = {mu!r} needs about as many uniformization terms, budget is {_MAX_TERMS}"
        )
    left, right, weights = _poisson_window(mu, eps)
    if right + 1 > _MAX_TERMS:
        raise TransientBudgetError(
            f"{right + 1} uniformization terms needed, budget is {_MAX_TERMS}"
        )
    if gen._uniformized is None:
        pt = _p_transposed(gen, lam)
        gen._uniformized = _ring(pt, max(1, _RING // len(pt.data)))
    b, indptr, indices, data = gen._uniformized
    n = gen.n
    # step k lands in block (k - 1) mod 2b, so pi0, step 0, in the last
    # block; the calls fill the halves in turn, each running b steps
    v = np.empty(2 * b * n)
    v[-n:] = pi
    calls = cycle([
        (half, (b * n, 2 * b * n, indptr[h * b * n:], indices, data, v, half), half.reshape(b, n))
        for h, half in enumerate((v[:b * n], v[b * n:]))
    ])
    # call j runs steps j·b + 1 .. (j + 1)·b; those before j0, which runs
    # step ``left``, only run the kernel.  w, window-sized, weights steps
    # j0·b .. m·b (w[0] is step 0's weight or 0); terms add one at a time
    j0, m = max(0, left - 1) // b, -(-right // b)
    w = np.zeros((m - j0) * b + 1)
    w[left - j0 * b:right - j0 * b + 1] = weights
    steps = w[1:].reshape(-1, b, 1)
    acc, terms = np.zeros(n), np.empty((b, n))
    rows = list(terms)
    acc += pi * w[0]
    for j, (half, call, block) in zip(range(m), calls):
        half.fill(0.0)
        csr_matvec(*call)
        if j >= j0:
            np.multiply(block, steps[j - j0], out=terms)
            for row in rows:
                np.add(acc, row, out=acc)
    raw_mass = float(acc.sum())
    if details is not None:
        details.update(raw_mass=raw_mass, terms=right + 1, left=left)
    np.clip(acc, 0.0, None, out=acc)
    return acc / acc.sum()


def _tag_rates(ts: TransitionSystem, tag: str) -> np.ndarray:
    """Total rate of the edges labeled ``tag`` leaving each state, summed in
    edge order; warns when no edge carries ``tag``."""
    tagged = np.array([label == tag for label, _rate in ts.kinds], dtype=bool)[ts.kind]
    if not tagged.any():
        warnings.warn(f"no edge labeled {tag!r}; throughput is 0", stacklevel=3)
        return np.zeros(len(ts))
    return np.bincount(ts.src[tagged], weights=_edge_rates(ts)[tagged], minlength=len(ts))


def throughput(ts: TransitionSystem, pi: Sequence[float], tag: str) -> float:
    """Expected firing rate of edges labeled ``tag`` under distribution pi."""
    return float(np.dot(np.asarray(pi), _tag_rates(ts, tag)))


def _live_states(ts: TransitionSystem) -> np.ndarray | None:
    """Mask of the non-final states, or None when no state is final."""
    finals = list(ts.final_states())
    if not finals:
        return None
    live = np.ones(len(ts), dtype=bool)
    live[finals] = False
    return live


def reliability(ts: TransitionSystem, pi: Sequence[float]) -> float:
    """Probability of not yet having reached a final (absorbing) state.

    The non-final mass is summed directly, not as 1 minus the final mass,
    so it keeps its relative precision however small it gets.
    """
    live = _live_states(ts)
    return 1.0 if live is None else float(np.asarray(pi)[live].sum())


@dataclass
class MeasureSeries:
    """Per-time throughput X(t), reliability R(t), and conditional X/R.

    ``max_mass_defect`` is the worst |raw mass - 1| of the transient steps
    before renormalization; it is reported, not written to the CSV.
    """

    times: list[float]
    throughput: list[float]
    reliability: list[float]
    conditional: list[float | None]
    max_mass_defect: float = 0.0

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,throughput,reliability,conditional\n")
            for t, x, r, c in zip(self.times, self.throughput, self.reliability, self.conditional):
                cond = "" if c is None else _fmt(c)
                fh.write(f"{_fmt(t)},{_fmt(x)},{_fmt(r)},{cond}\n")


def default_grid(points: int = 60, start: float = 1.0, stop: float = 1e4) -> list[float]:
    return np.logspace(np.log10(start), np.log10(stop), points).tolist()


def measure_series(
    ts: TransitionSystem,
    gen: Generator,
    grid: Sequence[float],
    eps: float = 1e-9,
    tag: str = "as",
) -> MeasureSeries:
    """Measures over a strictly increasing time grid, solved incrementally."""
    grid = list(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])) or (grid and grid[0] < 0):
        raise ValueError("grid must be strictly increasing and start at t >= 0")
    rates = _tag_rates(ts, tag)
    live = _live_states(ts)
    pi = np.zeros(len(ts))
    pi[0] = 1.0
    prev = 0.0
    worst = 0.0
    xs, rs, cs = [], [], []
    for t in grid:
        details: dict = {}
        pi = transient(gen, pi, t - prev, eps, details=details)
        worst = max(worst, abs(details["raw_mass"] - 1.0))
        prev = t
        x = float(np.dot(pi, rates))
        r = 1.0 if live is None else float(pi[live].sum())
        xs.append(x)
        rs.append(r)
        cs.append(x / r if r >= 1e-12 else None)
    return MeasureSeries(
        times=grid, throughput=xs, reliability=rs, conditional=cs, max_mass_defect=worst
    )
