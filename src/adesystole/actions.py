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
from collections import deque
from dataclasses import dataclass

import numpy as np

from adesystole.roots import RootClass, RootSystem, _reflect, cartan_pairing
from adesystole.stability import REL_TOL, as_charge, systole_upper, volume_roots

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


def validate_heart(rs: RootSystem, heart: HeartState) -> None:
    """Raise unless the simples form a basis and are signed positive roots."""
    n = rs.rank
    if len(heart.simples) != n:
        raise ValueError(f"heart has {len(heart.simples)} simples, expected {n}")
    det = round(np.linalg.det(np.array(heart.simples, dtype=np.float64)))
    if abs(det) != 1:
        raise ValueError(f"simple classes do not form a basis (determinant {det})")
    positive = set(rs.positive_roots)
    for v in heart.simples:
        if v not in positive and tuple(-c for c in v) not in positive:
            raise ValueError(f"class {v} is not a positive root up to sign")


def simple_tilt(rs: RootSystem, heart: HeartState, k: int, direction: str) -> HeartState:
    """Tilt the heart at the simple in position k (1-based).

    The tilted simple class is negated; every other class m gains
    max(0, -<m, s>) copies of s, the Cartan pairing being taken on the
    current class vectors.  Forward and backward tilts induce the same map
    on classes (the twist and its inverse agree on the class lattice); the
    direction is kept in the word.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be {FORWARD!r} or {BACKWARD!r}, got {direction!r}")
    if not 1 <= k <= heart.rank:
        raise IndexError(f"tilt position {k} out of range 1..{heart.rank}")
    s = heart.simples[k - 1]
    new_simples = []
    for pos, m in enumerate(heart.simples):
        if pos == k - 1:
            new_simples.append(tuple(-c for c in s))
        else:
            d = max(0, -cartan_pairing(rs, m, s))
            new_simples.append(tuple(c + d * cs for c, cs in zip(m, s)))
    return HeartState(simples=tuple(new_simples), word=heart.word + ((k, direction),))


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
    """Breadth-first tilt graph from the standard heart.

    Every node within max_depth tilts of the start is expanded with all
    2n moves (n positions, both directions) in a fixed order, so node
    numbering is deterministic.  Nodes first reached at depth max_depth
    are kept but not expanded; `complete` is False in that case.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    start = canonical_heart(rs).simples
    index = {start: 0}
    nodes = [start]
    depths = [0]
    edges = []
    complete = True
    queue = deque([0])
    while queue:
        src = queue.popleft()
        if depths[src] >= max_depth:
            complete = False
            continue
        heart = HeartState(simples=nodes[src])
        for k in range(1, rs.rank + 1):
            for direction in (FORWARD, BACKWARD):
                target = simple_tilt(rs, heart, k, direction).simples
                dst = index.get(target)
                if dst is None:
                    dst = len(nodes)
                    index[target] = dst
                    nodes.append(target)
                    depths.append(depths[src] + 1)
                    queue.append(dst)
                edges.append((src, dst, k, direction))
    return ExchangeGraph(
        rank=rs.rank,
        nodes=tuple(nodes),
        edges=tuple(edges),
        depth=max_depth,
        complete=complete,
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
    z0 = as_charge(Z, rs.rank)
    if not z0.any():
        raise ValueError("the zero charge has no systole")
    rng = np.random.default_rng(seed)
    pairs = [(z0, complex(zeta))]
    for _ in range(trials - 1):
        z = rng.standard_normal(rs.rank) + 1j * rng.standard_normal(rs.rank)
        while not z.any():
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
