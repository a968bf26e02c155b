"""Group actions on charges and class-level heart tilting.

Two actions matter here: rescaling a charge by exp(-i pi zeta), and the
reflection twist at a vertex, which acts on class vectors as the simple
reflection and on charges by precomposition.  Hearts are tracked only
through the classes of their simples; a tilt at one simple replaces its
class by the negative and corrects the others through the Cartan pairing.
Iterating tilts from the standard heart and deduplicating by class tuple
yields a finite exchange graph.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

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


def _tilt(cartan, simples: tuple[RootClass, ...], k0: int) -> tuple[RootClass, ...]:
    """Class map of a tilt at 0-based position k0: s = simples[k0] is negated
    and every other class m gains max(0, -<m, s>) copies of s, <m, s> = m.(Cs)."""
    s = simples[k0]
    cs = [sum(c * x for c, x in zip(row, s)) for row in cartan]
    out = []
    for pos, m in enumerate(simples):
        if pos == k0:
            out.append(tuple(-c for c in s))
            continue
        d = -sum(a * b for a, b in zip(m, cs))
        out.append(tuple(a + d * b for a, b in zip(m, s)) if d > 0 else m)
    return tuple(out)


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
    simples = _tilt(rs.cartan, tuple(map(tuple, heart.simples)), k - 1)
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

    def node_label(self, index: int) -> str:
        return ";".join(",".join(str(c) for c in v) for v in self.nodes[index])

    def to_dot(self) -> str:
        lines = ["digraph tilts {"]
        for idx in range(len(self.nodes)):
            lines.append(f'  n{idx} [label="{self.node_label(idx)}"];')
        for src, dst, pos, direction in self.edges:
            tag = "F" if direction == FORWARD else "B"
            lines.append(f'  n{src} -> n{dst} [label="{tag}:{pos}"];')
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

    def to_json(self) -> str:
        return json.dumps(self.adjacency(), indent=2)


def exchange_graph(rs: RootSystem, max_depth: int) -> ExchangeGraph:
    """Breadth-first tilt graph from the standard heart, one level at a time.

    Every node within max_depth tilts of the start is expanded at each of
    its n positions in order; forward and backward tilts share one class
    map, so each position yields one target and two labelled edges.  Node
    numbering is deterministic.  Nodes first reached at depth max_depth
    are kept but not expanded; `complete` is False in that case.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    start = canonical_heart(rs).simples
    index = {start: 0}
    nodes = [start]
    edges = []
    frontier = [0]
    for _ in range(max_depth):
        if not frontier:
            break
        level, frontier = frontier, []
        for src in level:
            for k in range(1, rs.rank + 1):
                target = _tilt(rs.cartan, nodes[src], k - 1)
                dst = index.get(target)
                if dst is None:
                    dst = len(nodes)
                    index[target] = dst
                    nodes.append(target)
                    frontier.append(dst)
                edges.append((src, dst, k, FORWARD))
                edges.append((src, dst, k, BACKWARD))
    return ExchangeGraph(
        rank=rs.rank,
        nodes=tuple(nodes),
        edges=tuple(edges),
        depth=max_depth,
        complete=not frontier,
    )


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
