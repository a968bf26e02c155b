"""Group actions on charges and class-level heart tilting.

Two actions matter here: rescaling a charge by exp(-i pi zeta), and the
reflection twist at a vertex, which acts on class vectors as the simple
reflection and on charges by precomposition.  Hearts are tracked only
through the classes of their simples; a tilt at one simple replaces its
class by the negative and corrects the others through the Cartan pairing.
Iterating tilts from the standard heart yields a finite exchange graph,
the Cayley graph of the Weyl group.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from itertools import accumulate
from typing import Iterator, NamedTuple

import numpy as np

from adesystole.roots import RootClass, RootSystem, _check_class, _check_int, _check_seed
from adesystole.stability import (
    REL_TOL, _in_range, _nonzero_charge, as_charge, check_inequality, systole_upper, volume_roots,
)

FORWARD = "forward"
BACKWARD = "backward"

RATIO_REL_TOL = 1e-12

MAX_GRAPH_BYTES = 4 * 10**9  # of an exchange graph's arrays; about 4 GB


def act_scaling(Z, zeta: complex) -> np.ndarray:
    """Rescale a charge by exp(-i pi zeta).

    Only the charge component of the action is tracked; the phase-window
    shift by Re(zeta) has no effect on class-level quantities.  A zeta that
    is not finite, or whose factor or product leaves the float range (an
    entry that is not finite, or a nonzero entry that becomes 0), is a
    ValueError.
    """
    z = as_charge(Z)
    zeta = complex(zeta)
    out_of_range = f"zeta = {zeta} rescales the charge out of floating-point range"
    if not cmath.isfinite(zeta):
        raise ValueError(out_of_range)
    try:
        factor = cmath.exp(-1j * math.pi * zeta)
    except (OverflowError, ValueError):  # exp overflows, or pi Re(zeta) does
        raise ValueError(out_of_range) from None
    with np.errstate(all="ignore"):
        out = z * factor
    if not np.isfinite(out).all() or np.count_nonzero(out) < np.count_nonzero(z):
        raise ValueError(out_of_range)
    return out


def _check_vertex(rs: RootSystem, i: int) -> int:
    _check_int("vertex", i)
    if not 1 <= i <= rs.rank:
        raise IndexError(f"vertex index {i} out of range 1..{rs.rank}")
    return i - 1


def reflect_class(rs: RootSystem, i: int, alpha) -> RootClass:
    """Simple reflection at vertex i (1-based) on an integer class vector."""
    i0 = _check_vertex(rs, i)
    alpha = _check_class(alpha, rs.rank)
    out = list(alpha)
    out[i0] -= sum(c * a for c, a in zip(rs.cartan[i0], alpha))
    return tuple(out)


def reflect_charge(rs: RootSystem, i: int, Z) -> np.ndarray:
    """Precompose a charge with the simple reflection at vertex i.

    New value at vertex j is Z(s_i(e_j)) = Z_j - C_ij * Z_i; at j = i this
    negates the entry.
    """
    i0 = _check_vertex(rs, i)
    z = as_charge(Z, rs.rank)
    with np.errstate(all="ignore"):
        out = z - rs.cartan_array[i0] * z[i0]
    if not np.isfinite(out[i0]):
        # z_i - 2 z_i overflowed, though its value -z_i is finite.  Only here:
        # elsewhere numpy's complex product can give signed zeros 0.0 - z_i lacks.
        out[i0] = 0.0 - z[i0]
    if not np.isfinite(out).all():
        raise ValueError(f"charge is out of float range: its reflection at vertex {i} evaluates to {out.tolist()}")
    return out


@dataclass(frozen=True)
class HeartState:
    """Classes of the simples of a tilted heart, plus the tilt word.

    `simples` is an ordered tuple of integer class vectors forming a basis
    of the class lattice, each equal to a positive root up to sign.  `word`
    records the (position, direction) tilts applied from the standard heart.
    """

    simples: tuple[RootClass, ...]
    word: tuple[tuple[int, str], ...] = ()

    @property
    def rank(self) -> int:
        return len(self.simples)


def canonical_heart(rs: RootSystem) -> HeartState:
    """Heart state of the standard heart: the simple classes themselves."""
    n = rs.rank
    return HeartState(simples=tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def _tilt(cartan: np.ndarray, stack: np.ndarray, k0: int) -> np.ndarray:
    """Class map of a tilt at 0-based position k0 on a stack of hearts.

    `stack` has shape (f, n, n); row k of each heart is the class of its
    k-th simple.  In every heart s = row k0 is negated and every other class
    m gains max(0, -<m, s>) copies of s, <m, s> = m.(Cs), with one pairing
    product for the whole stack.  On signed roots every partial sum stays
    within +-96, so int8 arithmetic is exact.
    """
    s = stack[:, k0]
    gain = np.maximum(-np.einsum("fpj,fj->fp", stack, s @ cartan), 0)
    out = stack + gain[:, :, None] * s[:, None, :]
    out[:, k0] = -s
    return out


def simple_tilt(rs: RootSystem, heart: HeartState, k: int, direction: str) -> HeartState:
    """Tilt the heart at the simple in position k (1-based), by `_tilt`.

    Forward and backward tilts induce the same map on classes (the twist
    and its inverse agree on the class lattice); the direction is kept in
    the word.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be {FORWARD!r} or {BACKWARD!r}, got {direction!r}")
    _check_int("tilt position", k)
    if not 1 <= k <= heart.rank:
        raise IndexError(f"tilt position {k} out of range 1..{heart.rank}")
    classes = [_check_class(m, rs.rank, f"simple {i}") for i, m in enumerate(heart.simples, 1)]
    stack = np.array([classes], dtype=np.int64)
    simples = tuple(map(tuple, _tilt(rs.cartan_array, stack, k - 1)[0].tolist()))
    return HeartState(simples, heart.word + ((k, direction),))


# Nodes (and expanded sources) rendered per export chunk.
_CHUNK_NODES = 2048


class _Format(NamedTuple):
    """Templates of one export format.  Node i is `node` (% i if it has a %s)
    and its classes: entries joined by `entry`, classes by `between`, then
    `last`.  Edge i -> j at position k, direction d is `edge` % i, j, `tail` %
    {"k": k, "d": labels[d]}.  The first node and edge drop `skip` characters."""

    node: str
    entry: str
    between: str
    last: str
    edge: str
    tail: str
    labels: tuple[str, str] = (FORWARD, BACKWARD)
    skip: tuple[int, int] = (0, 0)


_JSON = _Format(
    ",\n    [\n      [\n        ", ",\n        ", "\n      ],\n      [\n        ", "\n      ]\n    ]",
    ',\n    {\n      "src": %s,\n      "dst": ',
    ',\n      "position": %(k)d,\n      "direction": "%(d)s"\n    }',
    skip=(1, 1),
)
_DOT = _Format('  n%s [label="', ",", ";", '"];\n', "  n%s -> n", ' [label="%(d)s:%(k)d"];\n', ("F", "B"))
# `cli.render_human`'s lists: one item per line, or the nodes on one line.
_HUMAN = _Format(
    "\n  [[", ", ", "], [", "]]", '\n  {"src": %s, "dst": ', ', "position": %(k)d, "direction": "%(d)s"}'
)
_HUMAN_LINE = _HUMAN._replace(node=", [[", skip=(2, 0))


class ExchangeGraph:
    """Class-level tilt graph, stored as arrays; `exchange_graph` builds it.

    `stack` is the (N, n, n) int8 array of the nodes in breadth-first
    order; row k of stack[i] is the class of node i's k-th simple.  Nodes
    0..m-1 are the expanded ones, and `targets[i, k - 1]`, an (m, n)
    int32 array, is the node that the tilt at position k leads to from
    node i; forward and backward tilts share one class map, so each target
    stands for two labelled edges.  `levels` holds the offsets of the BFS
    levels: level d is nodes levels[d]:levels[d + 1], as many as the q^d
    coefficient of W's Poincare polynomial.  `complete` reports whether
    every node was expanded before the depth cap stopped the search.

    `nodes` (tuples of class tuples) and `edges` ((source, target,
    position, direction), source-major, position-minor, forward first) are
    read-only sequences over the arrays: each item is computed when it is
    read and none is kept, so they take O(1) memory at any graph size.  The
    JSON, DOT and human exports read the arrays, not these views.
    """

    def __init__(self, rank: int, stack, targets, levels: tuple[int, ...], depth: int, complete: bool):
        self.rank, self.stack, self.targets, self.levels = rank, stack, targets, levels
        self.depth, self.complete = depth, complete

    @cached_property
    def nodes(self) -> Sequence[tuple[RootClass, ...]]:
        return _View(len(self.stack), 1, partial(_node_items, self.stack))

    @cached_property
    def edges(self) -> Sequence[tuple[int, int, int, str]]:
        return _View(2 * self.targets.size, 2 * self.rank, partial(_edge_items, self.targets))

    def json_chunks(self, head: dict | None = None) -> Iterator[str]:
        """`head`'s fields, then rank, depth, complete, nodes and edges as json.dumps(...,
        indent=2) renders them, in chunks of at most `_CHUNK_NODES` nodes or sources."""
        fields = {**(head or {}), "rank": self.rank, "depth": self.depth, "complete": self.complete}
        opening = json.dumps(fields, indent=2)[:-2]  # without the closing "\n}"
        closing = "\n  ]\n}" if len(self.targets) else "]\n}"
        return self._chunks(_JSON, opening, ',\n  "nodes": [', '\n  ],\n  "edges": [', closing)

    def dot_chunks(self) -> Iterator[str]:
        """The graph in DOT, in chunks of at most `_CHUNK_NODES` nodes or sources."""
        return self._chunks(_DOT, "digraph tilts {\n", "", "", "}")

    def human_chunks(self, head: str = "") -> Iterator[str]:
        """`head`'s lines, then rank, depth, complete, nodes and edges as `cli.render_human`
        writes them, in chunks.  A list over 100 characters takes one line per item; any
        15 nodes or 2 edges are, so at most 15 nodes are rendered to decide."""
        fields = f"rank: {self.rank}\ndepth: {self.depth}\ncomplete: {self.complete}"
        opening = f"{head}\n{fields}" if head else fields
        edges = "\nedges:" if len(self.targets) else "\nedges: []"
        if len(self._node_text(_HUMAN_LINE, 0, min(15, len(self.stack)))) <= 100:
            return self._chunks(_HUMAN_LINE, opening, "\nnodes: [", "]" + edges, "")
        return self._chunks(_HUMAN, opening, "\nnodes:", edges, "")

    def _chunks(self, fmt: _Format, opening: str, nodes: str, edges: str, closing: str) -> Iterator[str]:
        """The one writer: `opening`, `nodes` and the nodes in `fmt`, `edges` and the
        edges, `closing`; a chunk holds at most `_CHUNK_NODES` nodes or sources."""
        yield opening
        yield nodes
        for a in range(0, len(self.stack), _CHUNK_NODES):
            text = self._node_text(fmt, a, min(a + _CHUNK_NODES, len(self.stack)))
            yield text if a else text[fmt.skip[0] :]
        yield edges
        ids, n = np.array(list(map(str, range(len(self.stack)))), dtype=object), self.rank
        tails = [fmt.tail % {"k": k, "d": d} for k in range(1, n + 1) for d in fmt.labels]
        for a in range(0, len(self.targets), _CHUNK_NODES):
            targets = self.targets[a : a + _CHUNK_NODES]
            # Source-major, then position, direction: head, target id, tail.
            cells = np.empty((len(targets), 2 * n, 3), dtype=object)
            cells[:, :, 0] = np.array(list(map(fmt.edge.__mod__, ids[a : a + len(targets)])), dtype=object)[:, None]
            cells[:, :, 1] = ids[np.repeat(targets, 2, axis=1)]
            cells[:, :, 2] = tails
            text = "".join(cells.ravel().tolist())
            yield text if a else text[fmt.skip[1] :]
        yield closing

    def _node_text(self, fmt: _Format, a: int, b: int) -> str:
        """Nodes a..b-1 in `fmt`; each distinct class vector is rendered once."""
        n, keys = self.rank, _row_bytes(self.stack[a:b], self.rank)
        rows = {key: fmt.entry.join(map(str, np.frombuffer(key, np.int8).tolist())) for key in set(keys)}
        # Per node: head, then each class and the separator after it.
        cells = np.empty((b - a, 2 * n + 1), dtype=object)
        cells[:, 0] = list(map(fmt.node.__mod__, range(a, b))) if "%s" in fmt.node else fmt.node
        cells[:, 1::2] = np.array(list(map(rows.__getitem__, keys)), dtype=object).reshape(b - a, n)
        cells[:, 2::2] = [fmt.between] * (n - 1) + [fmt.last]
        return "".join(cells.ravel().tolist())

    def to_json(self, head: dict | None = None) -> str:
        return "".join(self.json_chunks(head))

    def to_dot(self) -> str:
        return "".join(self.dot_chunks())


def _level_widths(rs: RootSystem, depth: int) -> list[int]:
    """Coefficients 0..depth of W's Poincare polynomial, the product of
    1 + q + ... + q^m over W's exponents m, its degrees less one (Humphreys,
    Reflection Groups and Coxeter Groups, 3.7); exponent m occurs as often
    as the roots of height m outnumber those of height m + 1 (3.20)."""
    per_height = np.bincount(np.array(rs.positive_roots).sum(axis=1))[1:]
    exponents = np.repeat(np.arange(1, len(per_height) + 1), -np.diff(per_height, append=0))
    widths = [1] + [0] * depth
    for m in exponents.tolist():
        sums = [0, *accumulate(widths)]
        widths = [sums[k + 1] - sums[max(k - m, 0)] for k in range(depth + 1)]
    return widths


def exchange_graph(rs: RootSystem, max_depth: int) -> ExchangeGraph:
    """Breadth-first tilt graph from the standard heart; `ExchangeGraph`'s only builder.

    Every node within max_depth tilts of the start is expanded at each of
    its n positions, and new nodes are numbered source-major, position-minor.
    Nodes first reached at depth max_depth are kept but not expanded;
    `complete` is False in that case.

    The graph is the Cayley graph of the Weyl group for the simple
    reflections (Brav-Thomas, Math. Ann. 2011), so `_level_widths` sizes
    each level: the arrays are allocated once (ValueError if over
    MAX_GRAPH_BYTES), and a level of another width is ArithmeticError.
    Every reached heart M pairs its simples by C, so the tilt at k is
    T_k = I - c_k e_k^T.  The heights M @ 1 = w(rho) of the simples are
    distinct, at most h - 1 in absolute value, and key a node in n int8
    bytes.  As l(ws) = l(w) +- 1, a target is either in the previous level
    or new.
    """
    _check_int("max_depth", max_depth)
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    n, key = rs.rank, f"V{rs.rank}"
    last = min(max_depth, len(rs.positive_roots))  # the last level; |Phi+| holds the longest element
    complete = max_depth > last  # then the longest element is expanded too, into a level of width 0
    widths = _level_widths(rs, last + 1)
    levels = tuple(accumulate(widths[: last + 1], initial=0))
    size = levels[-1]
    expanded = size if complete else levels[-2]
    if (nbytes := size * n * n + expanded * n * 4) > MAX_GRAPH_BYTES:
        raise ValueError(f"the {rs.ade} tilt graph to depth {max_depth} has {size:,} nodes in {nbytes:,} bytes, "
                         f"over the limit of {MAX_GRAPH_BYTES:,}")
    stack, targets = np.empty((size, n, n), dtype=np.int8), np.empty((expanded, n), dtype=np.int32)
    stack[0] = np.eye(n, dtype=np.int8)
    cartan = rs.cartan_array.astype(np.int8)
    previous = np.empty(0, key)  # the previous level's keys
    for d in range(last + complete):
        a, b = levels[d], levels[d + 1]
        level = stack[a:b]
        heights = level.sum(axis=2, dtype=np.int8)
        # Row n * f + k holds the heights of T_k applied to node f; all within 2(h - 1) <= 122.
        images = (heights[:, None, :] - heights[:, :, None] * cartan).reshape(-1, n)
        keys, seen = np.concatenate((previous, images.view(key).ravel())), len(previous)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        new = np.argsort(first)[seen:]  # the previous level's distinct keys come first
        if len(new) != widths[d + 1]:
            raise ArithmeticError(f"level {d + 1} of the {rs.ade} tilt graph has {len(new)} nodes, not {widths[d + 1]}")
        ids = a - seen + first
        ids[new] = b + np.arange(len(new))
        targets[a:b] = ids[inverse[seen:]].reshape(-1, n)
        # Each new node is T_k applied to its first-seen source.
        src, pos = np.divmod(first[new] - seen, n)
        stack[b : b + len(new)] = level[src] - cartan[pos][:, :, None] * level[src, pos][:, None, :]
        previous = heights.view(key).ravel()
    return ExchangeGraph(n, stack, targets, levels, max_depth, complete)


def _row_bytes(array: np.ndarray, width: int) -> list[bytes]:
    """The raw bytes of each run of `width` entries of a C-contiguous array."""
    return array.reshape(-1, width).view(f"V{array.itemsize * width}").ravel().tolist()


class _View(Sequence):
    """A read-only sequence of `length` items, each computed when read and never
    kept: `items(idx)` lists those at an int64 index array.  Iteration lists
    `_CHUNK_NODES` nodes' items, `per_node` a node, at a time.  The view equals any
    sequence of equal items, and defining `__eq__` leaves it unhashable."""

    def __init__(self, length: int, per_node: int, items):
        self._length, self._per_node, self._items = length, per_node, items

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        if isinstance(i, slice):
            r = range(self._length)[i]
            return tuple(self._items(np.arange(r.start, r.stop, r.step)))
        i = operator.index(i)
        if not -self._length <= i < self._length:
            raise IndexError(f"index {i} out of range for {self._length} items")
        return self._items(np.array([i % self._length]))[0]

    def __iter__(self):
        step = _CHUNK_NODES * self._per_node
        for a in range(0, self._length, step):
            yield from self._items(np.arange(a, min(a + step, self._length)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def _node_items(stack: np.ndarray, idx: np.ndarray) -> list[tuple[RootClass, ...]]:
    """The nodes at idx, each a tuple of its n class tuples; equal classes share one tuple."""
    n, keys = stack.shape[1], _row_bytes(stack[idx], stack.shape[1])
    vector = {key: tuple(np.frombuffer(key, dtype=stack.dtype).tolist()) for key in set(keys)}
    return list(zip(*[map(vector.__getitem__, keys)] * n))


def _edge_items(targets: np.ndarray, idx: np.ndarray) -> list[tuple[int, int, int, str]]:
    """The edges at idx: edge 2n i + 2(k - 1) + d is the tilt at position k
    from node i, forward if d is 0 and backward if it is 1."""
    src, rest = np.divmod(idx, 2 * targets.shape[1])
    pos, directions = rest >> 1, map((FORWARD, BACKWARD).__getitem__, (idx & 1).tolist())
    return list(zip(src.tolist(), targets[src, pos].tolist(), (pos + 1).tolist(), directions))


@dataclass(frozen=True)
class EquivarianceReport:
    """Worst relative errors seen while checking the action identities."""

    trials: int
    sys_scaling_error: float
    vol_scaling_error: float
    reflect_error: float
    ratio_error: float

    @property
    def passed(self) -> bool:
        return (
            self.sys_scaling_error <= REL_TOL
            and self.vol_scaling_error <= REL_TOL
            and self.reflect_error <= REL_TOL
            and self.ratio_error <= RATIO_REL_TOL
        )

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _rel_err(measured: float, expected: float) -> float:
    return abs(measured - expected) / max(1.0, abs(expected))


def verify_action_equivariance(
    rs: RootSystem, Z, zeta: complex, trials: int = 1, seed: int = 0
) -> EquivarianceReport:
    """Numerically confirm how rescaling and reflections move sys and vol.

    Checks, for the supplied (Z, zeta) and trials-1 further seeded random
    pairs: the upper systole bound scales by exp(pi Im zeta) and the volume
    by exp(2 pi Im zeta); the volume is unchanged by the reflection at every
    vertex; and the ratio sys^2/vol is invariant under rescaling.
    """
    _check_int("trials", trials)
    _check_seed(seed)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    z0 = _nonzero_charge(rs, Z)
    _in_range(volume_roots(rs, z0), z0, systole_upper(rs, z0))
    zeta = complex(zeta)
    out_of_range = f"zeta = {zeta} rescales the charge out of floating-point range"
    if not (cmath.isfinite(zeta) and 2 * math.pi * abs(zeta.imag) < math.log(np.finfo(float).max)):
        raise ValueError(out_of_range)
    scaled = act_scaling(z0, zeta)
    try:
        _in_range(volume_roots(rs, scaled), scaled, systole_upper(rs, scaled))
    except ValueError as exc:
        raise ValueError(f"{out_of_range}: {exc}") from None
    rng = np.random.default_rng(seed)
    z, zt = z0, zeta
    sys_err = vol_err = ref_err = ratio_err = 0.0
    for trial in range(trials):
        if trial:  # a seeded pair, drawn when it is checked
            z = rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)
            while not z.all():
                z = rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)
            zt = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        before = check_inequality(rs, z)
        after = check_inequality(rs, act_scaling(z, zt))
        mult = math.exp(math.pi * zt.imag)
        sys_err = max(sys_err, _rel_err(after.sys_upper, mult * before.sys_upper))
        vol_err = max(vol_err, _rel_err(after.volume, mult**2 * before.volume))
        for i in range(1, rs.rank + 1):
            ref_err = max(ref_err, _rel_err(volume_roots(rs, reflect_charge(rs, i, z)), before.volume))
        ratio_err = max(ratio_err, _rel_err(after.ratio_upper, before.ratio_upper))
    return EquivarianceReport(
        trials=int(trials),
        sys_scaling_error=sys_err,
        vol_scaling_error=vol_err,
        reflect_error=ref_err,
        ratio_error=ratio_err,
    )
