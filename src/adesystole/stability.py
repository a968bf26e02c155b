"""Central charges and the systole/volume quantities attached to them.

A central charge is a vector of n complex numbers, the values of an
additive map on the n simple classes.  The volume admits two routes that
agree by the exact coefficient identity: a Hermitian form in the inverse
Cartan matrix over the basis, and a Coxeter-normalized sum of |Z(M)|^2
over the positive roots M.  The systole is bracketed: the minimum over
the simples bounds it above, the minimum over all positive roots bounds
it below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from adesystole.roots import RootClass, RootSystem

# Relative tolerances: cross-formula comparisons, and inequality slack.
REL_TOL = 1e-9
SLACK_REL_TOL = 1e-12

_NORMAL_MIN = float(np.finfo(np.float64).tiny)


def as_charge(values, rank: int | None = None) -> np.ndarray:
    """Coerce a sequence of finite complex numbers into a charge vector."""
    z = np.asarray(values, dtype=np.complex128)
    if z.ndim != 1:
        raise ValueError(f"charge must be a flat vector, got shape {z.shape}")
    if rank is not None and z.shape[0] != rank:
        raise ValueError(f"charge has length {z.shape[0]}, expected {rank}")
    if not np.isfinite(z).all():
        raise ValueError("charge has a non-finite entry")
    return z


def _nonzero_charge(rs: RootSystem, Z) -> np.ndarray:
    """A charge with no zero entry: a stability condition sends no simple to 0."""
    z = as_charge(Z, rs.rank)
    if not z.all():
        vertex = int(np.flatnonzero(z == 0)[0]) + 1
        raise ValueError(f"charge is zero at vertex {vertex}; a zero entry has no systole")
    return z


def _in_range(vol: float, z: np.ndarray) -> float:
    """The volume of z, unless it is not finite or, for z != 0, below the
    normal float range; sys_upper^2 <= h vol is then finite too."""
    if not vol < np.inf or (vol < _NORMAL_MIN and z.any()):
        raise ValueError(f"charge is out of float range: its volume evaluates to {vol!r}")
    return vol


def evaluate_charge(rs: RootSystem, Z, alpha: RootClass) -> complex:
    """Value of the charge on a class vector: sum of c_i(alpha) * Z_i."""
    z = as_charge(Z, rs.rank)
    if len(alpha) != rs.rank:
        raise ValueError(f"class vector has length {len(alpha)}, expected {rs.rank}")
    return complex(np.dot(np.asarray(alpha, dtype=np.float64), z))


def volume_basis(rs: RootSystem, Z) -> float:
    """Volume via the basis form |sum_ij chi^{ij} Z_i conj(Z_j)|.

    The form is Hermitian with real symmetric matrix, so the sum is real
    and (by the positive-root expansion) nonnegative; both facts are
    asserted to REL_TOL before the absolute value is returned.
    """
    z = as_charge(Z, rs.rank)
    s = complex(np.conjugate(z) @ (rs.inverse_array @ z))
    vol = _in_range(abs(s), z)
    scale = max(1.0, vol)
    if abs(s.imag) > REL_TOL * scale:
        raise ArithmeticError(f"volume form is not real: {s!r}")
    if s.real < -REL_TOL * scale:
        raise ArithmeticError(f"volume form is negative: {s!r}")
    return vol


def _root_moduli(rs: RootSystem, z: np.ndarray) -> np.ndarray:
    """|Z(M)| over the positive roots M of an already validated charge."""
    return np.abs(rs.complex_root_matrix @ z)


def _volume(rs: RootSystem, moduli: np.ndarray) -> float:
    return float(moduli @ moduli) / rs.coxeter


def _systole_upper(z: np.ndarray) -> float:
    return float(np.abs(z).min())


def _systole_lower(moduli: np.ndarray) -> float:
    return float(moduli.min())


def volume_roots(rs: RootSystem, Z) -> float:
    """Volume via the root sum: (1/h) * sum over positive roots of |Z(M)|^2."""
    z = as_charge(Z, rs.rank)
    return _in_range(_volume(rs, _root_moduli(rs, z)), z)


def systole_upper(rs: RootSystem, Z) -> float:
    """Upper systole bound min_i |Z_i|; the simples are stable in every
    stability condition over the standard heart, so their smallest modulus
    dominates the systole there."""
    return _systole_upper(_nonzero_charge(rs, Z))


def systole_lower(rs: RootSystem, Z) -> float:
    """Lower systole bound min over all positive roots of |Z(M)|; every
    stable class is a positive root up to sign, so nothing stable can have
    smaller modulus."""
    return _systole_lower(_root_moduli(rs, _nonzero_charge(rs, Z)))


def heart_membership(Z) -> bool:
    """True iff every entry lies in {r e^{i pi phi} : r > 0, phi in (0, 1]},
    i.e. has positive imaginary part or sits on the negative real axis."""
    z = as_charge(Z)
    return bool(np.all((z.imag > 0) | ((z.imag == 0) & (z.real < 0))))


@dataclass(frozen=True)
class SystolicReport:
    """Systole bracket, volume, and slack against the h/n bound."""

    sys_lower: float
    sys_upper: float
    volume: float
    ratio_upper: float
    bound: Fraction
    slack: float

    def satisfied(self, rel_tol: float = SLACK_REL_TOL) -> bool:
        """Whether the inequality holds, allowing float round-off."""
        return self.slack >= -rel_tol * self.volume

    def as_dict(self) -> dict:
        return {
            "sys_lower": self.sys_lower,
            "sys_upper": self.sys_upper,
            "volume": self.volume,
            "ratio_upper": self.ratio_upper,
            "bound": float(self.bound),
            "bound_exact": str(self.bound),
            "slack": self.slack,
            "satisfied": self.satisfied(),
        }


def check_inequality(rs: RootSystem, Z) -> SystolicReport:
    """Evaluate the systolic inequality sys^2 <= (h/n) vol at the charge Z,
    using the upper systole bound (which dominates the true systole).

    The charge is validated once and the root moduli computed once; the
    fields equal volume_roots, systole_upper and systole_lower exactly."""
    z = _nonzero_charge(rs, Z)
    moduli = _root_moduli(rs, z)
    vol = _in_range(_volume(rs, moduli), z)
    sys_up = _systole_upper(z)
    bound = rs.bound
    return SystolicReport(
        sys_lower=_systole_lower(moduli),
        sys_upper=sys_up,
        volume=vol,
        ratio_upper=sys_up**2 / vol,
        bound=bound,
        slack=float(bound) * vol - sys_up**2,
    )
