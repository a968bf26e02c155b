"""Group actions on charges and class-level heart tilting.

Two actions matter here: rescaling a charge by exp(-i pi zeta), and the
reflection twist at a vertex, which acts on class vectors as the simple
reflection and on charges by precomposition.  Hearts are tracked only
through the classes of their simples; a tilt at one simple replaces its
class by the negative and corrects the others through the Cartan pairing.
Iterating tilts from the standard heart and deduplicating hearts by their
classes yields a finite exchange graph.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from itertools import cycle

import numpy as np

from adesystole.roots import RootClass, RootSystem, _reflect
from adesystole.stability import REL_TOL, _nonzero_charge, as_charge, systole_upper, volume_roots

FORWARD = "forward"
BACKWARD = "backward"

RATIO_REL_TOL = 1e-12


def act_scaling(Z, zeta: complex) -> np.ndarray:
    """Rescale a charge by exp(-i pi zeta).

    Only the charge component of the action is tracked; the phase-window
    shift by Re(zeta) has no effect on class-level quantities.
    """
    z = as_charge(Z)
    return z * cmath.exp(-1j * math.pi * zeta)


def _check_vertex(rs: RootSystem, i: int) -> int:
    if not 1 <= i <= rs.rank:
        raise IndexError(f"vertex index {i} out of range 1..{rs.rank}")
    return i - 1


def reflect_class(rs: RootSystem, i: int, alpha) -> RootClass:
    """Simple reflection at vertex i (1-based) on an integer class vector."""
    i0 = _check_vertex(rs, i)
    alpha = tuple(int(c) for c in alpha)
    if len(alpha) != rs.rank:
        raise ValueError(f"class vector has length {len(alpha)}, expected {rs.rank}")
    return _reflect(rs.cartan, i0, alpha)


def reflect_charge(rs: RootSystem, i: int, Z) -> np.ndarray:
    """Precompose a charge with the simple reflection at vertex i.

    New value at vertex j is Z(s_i(e_j)) = Z_j - C_ij * Z_i; at j = i this
    negates the entry.
    """
    i0 = _check_vertex(rs, i)
    z = as_charge(Z, rs.rank)
    return z - rs.cartan_array[i0] * z[i0]


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


def _integer_det(rows) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination."""
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(len(a) - 1):
        pivot = next((r for r in range(k, len(a)) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            a[i] = [(x * a[k][k] - a[i][k] * y) // prev for x, y in zip(a[i], a[k])]
        prev = a[k][k]
    return sign * a[-1][-1]


def validate_heart(rs: RootSystem, heart: HeartState) -> None:
    """Raise unless the simples are signed positive roots forming a basis."""
    n = rs.rank
    if len(heart.simples) != n:
        raise ValueError(f"heart has {len(heart.simples)} simples, expected {n}")
    positive = set(rs.positive_roots)
    for v in heart.simples:
        if v not in positive and tuple(-c for c in v) not in positive:
            raise ValueError(f"class {v} is not a positive root up to sign")
    det = _integer_det(heart.simples)
    if abs(det) != 1:
        raise ValueError(f"simple classes do not form a basis (determinant {det})")


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
    if not 1 <= k <= heart.rank:
        raise IndexError(f"tilt position {k} out of range 1..{heart.rank}")
    if any(len(m) != rs.rank for m in heart.simples):
        raise ValueError("class vector length does not match rank")
    stack = np.array([heart.simples], dtype=np.int64)
    simples = tuple(map(tuple, _tilt(rs.cartan_array, stack, k - 1)[0].tolist()))
    return HeartState(simples, heart.word + ((k, direction),))


@dataclass(frozen=True)
class ExchangeGraph:
    """Class-level tilt graph: nodes are simples tuples, edges labeled tilts.

    `edges` holds (source index, target index, position, direction); only
    expanded nodes emit edges, and `complete` reports whether every node
    was expanded before the depth cap stopped the search.
    """

    rank: int
    nodes: tuple[tuple[RootClass, ...], ...]
    edges: tuple[tuple[int, int, int, str], ...]
    depth: int
    complete: bool

    def out_degrees(self) -> list[int]:
        degrees = [0] * len(self.nodes)
        for src, _, _, _ in self.edges:
            degrees[src] += 1
        return degrees

    def _vector_texts(self, render) -> dict:
        """render(v) for each distinct class vector v, built once."""
        return {v: render(v) for v in {v for node in self.nodes for v in node}}

    def to_dot(self) -> str:
        label = self._vector_texts(lambda v: ",".join(map(str, v)))
        lines = ["digraph tilts {"]
        lines.extend(
            f'  n{idx} [label="{";".join(map(label.__getitem__, node))}"];'
            for idx, node in enumerate(self.nodes)
        )
        lines.extend(
            f'  n{src} -> n{dst} [label="{"F" if direction == FORWARD else "B"}:{pos}"];'
            for src, dst, pos, direction in self.edges
        )
        lines.append("}")
        return "\n".join(lines)

    def adjacency(self) -> dict:
        return {
            "rank": self.rank,
            "depth": self.depth,
            "complete": self.complete,
            "nodes": [[list(v) for v in node] for node in self.nodes],
            "edges": [
                {"src": src, "dst": dst, "position": pos, "direction": direction}
                for src, dst, pos, direction in self.edges
            ],
        }

    def to_json(self, head: dict | None = None) -> str:
        """`head`'s fields, then the adjacency, as json.dumps(..., indent=2) renders them.

        The nodes and edges are filled into templates; the text of each
        distinct class vector is built once.
        """
        fields = {**(head or {}), "rank": self.rank, "depth": self.depth, "complete": self.complete}
        scalars = ",\n".join(
            f"  {json.dumps(key)}: " + json.dumps(value, indent=2).replace("\n", "\n  ")
            for key, value in fields.items()
        )
        vector = self._vector_texts(lambda v: _json_item([f"        {c}" for c in v], "      "))
        nodes = [_json_item([vector[v] for v in node], "    ") for node in self.nodes]
        edges = _json_array(
            [_JSON_EDGE % (src, dst, pos, _JSON_DIRECTION[d]) for src, dst, pos, d in self.edges], "  "
        )
        pieces = ["{\n", scalars, ',\n  "nodes": ', *_json_array(nodes, "  "), ',\n  "edges": ', *edges]
        return "".join([*pieces, "\n}"])


def _json_array(items: list[str], indent: str) -> list[str]:
    """Pieces of a JSON array of rendered, already indented items, closed at
    `indent`; the caller joins them once, so a large array is copied once."""
    return ["[\n", ",\n".join(items), f"\n{indent}]"] if items else ["[]"]


def _json_item(items: list[str], indent: str) -> str:
    """A JSON array nested in another array, itself indented by `indent`."""
    return indent + "".join(_json_array(items, indent))


_JSON_DIRECTION = {d: json.dumps(d) for d in (FORWARD, BACKWARD)}
_JSON_EDGE = """    {
      "src": %d,
      "dst": %d,
      "position": %d,
      "direction": %s
    }"""


def exchange_graph(rs: RootSystem, max_depth: int) -> ExchangeGraph:
    """Breadth-first tilt graph from the standard heart, one level at a time.

    Every node within max_depth tilts of the start is expanded at each of
    its n positions in order; forward and backward tilts share one class
    map, so each position yields one target and two labelled edges.  A
    level is one (f, n, n) int8 array that `_tilt` maps at each position
    in one call, and nodes are keyed by their int8 bytes.  Node numbering
    is deterministic: source-major, position-minor.  Nodes first reached
    at depth max_depth are kept but not expanded; `complete` is False in
    that case.
    """
    if isinstance(max_depth, bool) or not isinstance(max_depth, numbers.Integral):
        raise ValueError(f"max_depth must be an integer, got {max_depth!r}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    n = rs.rank
    cartan = rs.cartan_array.astype(np.int8)
    level = np.eye(n, dtype=np.int8)[None]
    index = {level.tobytes(): 0}
    levels = [level]
    edges = []
    for _ in range(max_depth):
        if not len(level):
            break
        first, known = len(index) - len(level), len(index)
        targets = np.stack([_tilt(cartan, level, k) for k in range(n)], axis=1)
        dsts = np.array([index.setdefault(key, len(index)) for key in _row_bytes(targets, n * n)])
        ids, rows = np.unique(dsts, return_index=True)
        level = targets.reshape(-1, n, n)[rows[ids >= known]]
        levels.append(level)
        srcs = np.repeat(np.arange(first, known), 2 * n).tolist()
        positions = np.tile(np.repeat(np.arange(1, n + 1), 2), known - first).tolist()
        edges.extend(zip(srcs, np.repeat(dsts, 2).tolist(), positions, cycle((FORWARD, BACKWARD))))
    return ExchangeGraph(
        rank=n,
        nodes=_node_tuples(np.concatenate(levels)),
        edges=tuple(edges),
        depth=max_depth,
        complete=not len(level),
    )


def _row_bytes(array: np.ndarray, width: int) -> list[bytes]:
    """The raw bytes of each run of `width` entries of a C-contiguous array."""
    return array.reshape(-1, width).view(f"V{array.itemsize * width}").ravel().tolist()


def _node_tuples(stack: np.ndarray) -> tuple[tuple[RootClass, ...], ...]:
    """Nodes as tuples of class tuples; equal classes share one tuple."""
    n = stack.shape[1]
    keys = _row_bytes(stack, n)
    vector = {key: tuple(np.frombuffer(key, dtype=stack.dtype).tolist()) for key in set(keys)}
    classes = list(map(vector.__getitem__, keys))
    return tuple(tuple(classes[i : i + n]) for i in range(0, len(classes), n))


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
        return {
            "trials": self.trials,
            "sys_scaling_error": self.sys_scaling_error,
            "vol_scaling_error": self.vol_scaling_error,
            "reflect_error": self.reflect_error,
            "ratio_error": self.ratio_error,
            "passed": self.passed,
        }


def _rel_err(measured: float, expected: float) -> float:
    return abs(measured - expected) / max(1.0, abs(expected))


def _squares_in_range(rs: RootSystem, z: np.ndarray) -> bool:
    """Whether z has finite nonzero entries and sys^2 and vol are positive finite floats."""
    if not (np.isfinite(z).all() and z.all()):
        return False
    return all(0.0 < v < math.inf for v in (systole_upper(rs, z) ** 2, volume_roots(rs, z)))


def verify_action_equivariance(
    rs: RootSystem, Z, zeta: complex, trials: int = 1, seed: int = 0
) -> EquivarianceReport:
    """Numerically confirm how rescaling and reflections move sys and vol.

    Checks, for the supplied (Z, zeta) and trials-1 further seeded random
    pairs: the upper systole bound scales by exp(pi Im zeta) and the volume
    by exp(2 pi Im zeta); the volume is unchanged by the reflection at every
    vertex; and the ratio sys^2/vol is invariant under rescaling.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    z0 = _nonzero_charge(rs, Z)
    if not _squares_in_range(rs, z0):
        raise ValueError("the charge's systole squared or volume is out of floating-point range")
    zeta = complex(zeta)
    in_range = cmath.isfinite(zeta) and 2 * math.pi * abs(zeta.imag) < math.log(np.finfo(float).max)
    if not (in_range and _squares_in_range(rs, act_scaling(z0, zeta))):
        raise ValueError(f"zeta = {zeta} rescales the charge out of floating-point range")
    rng = np.random.default_rng(seed)
    pairs = [(z0, zeta)]
    for _ in range(trials - 1):
        z = rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)
        while not z.all():
            z = rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)
        zt = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        pairs.append((z, zt))

    sys_err = vol_err = ref_err = ratio_err = 0.0
    for z, zt in pairs:
        sys0 = systole_upper(rs, z)
        vol0 = volume_roots(rs, z)
        scaled = act_scaling(z, zt)
        mult = math.exp(math.pi * zt.imag)
        sys_err = max(sys_err, _rel_err(systole_upper(rs, scaled), mult * sys0))
        vol_err = max(vol_err, _rel_err(volume_roots(rs, scaled), mult**2 * vol0))
        for i in range(1, rs.rank + 1):
            ref_err = max(ref_err, _rel_err(volume_roots(rs, reflect_charge(rs, i, z)), vol0))
        ratio0 = sys0**2 / vol0
        ratio1 = systole_upper(rs, scaled) ** 2 / volume_roots(rs, scaled)
        ratio_err = max(ratio_err, abs(ratio1 - ratio0) / max(1.0, abs(ratio0)))
    return EquivarianceReport(
        trials=len(pairs),
        sys_scaling_error=sys_err,
        vol_scaling_error=vol_err,
        reflect_error=ref_err,
        ratio_error=ratio_err,
    )
