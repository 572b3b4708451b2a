"""Spatial potential systems: Gamma = Div(skew potential), with gauge metadata.

In 2D the potential is a single scalar w with Gamma = (w_y, -w_x) and
gauge shift w -> w + chi(t); in 3D it is (w^x, w^y, w^z) with Gamma the
curl and gauge shift by the gradient of chi(t, x, y, z).  Potentials are
ordinary dependent variables in the jet-expression layer; nothing here
attempts to express them locally in terms of u.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jetexpr import JetExpr, X, Y, Z, curl, divergence, total_derivative
from .conservation import FluxVector


class UnsupportedDimension(ValueError):
    pass


class SignatureMismatch(ValueError):
    pass


POTENTIALS_2D = ("w",)
POTENTIALS_3D = ("wx", "wy", "wz")


@dataclass(frozen=True)
class PotentialSystem:
    dim: int
    equations: tuple  # (flux component, curl-side expression) pairs
    potentials: tuple
    gauge: str

    def as_document(self) -> dict:
        """Catalog-format structured-text form of the system."""
        from .printing import to_source

        return {
            "dim": self.dim,
            "potentials": list(self.potentials),
            "equations": [
                {"flux": to_source(lhs), "curl": to_source(rhs)}
                for lhs, rhs in self.equations
            ],
            "gauge": self.gauge,
        }


def curl_side(dim: int) -> tuple:
    if dim not in (2, 3):
        raise UnsupportedDimension(
            f"spatial potential systems need dim 2 or 3 (curls do not exist for dim {dim})"
        )
    return curl([JetExpr.jet(p) for p in (POTENTIALS_2D if dim == 2 else POTENTIALS_3D)], dim)


def build_potential_system(gamma) -> PotentialSystem:
    """Equations Gamma^i = (curl of the skew potential)^i."""
    if isinstance(gamma, FluxVector):
        dim, comps = gamma.dim, gamma.Gamma
    else:
        comps = tuple(gamma)
        dim = len(comps)
    rhs = curl_side(dim)
    if dim == 2:
        gauge = "w -> w + chi(t)"
        pots = POTENTIALS_2D
    else:
        gauge = "(wx, wy, wz) -> (wx + chi_x, wy + chi_y, wz + chi_z), chi(t,x,y,z)"
        pots = POTENTIALS_3D
    system = PotentialSystem(dim, tuple(zip(comps, rhs)), pots, gauge)
    div = divergence([r for _, r in system.equations], dim)
    if not div.is_zero():
        raise AssertionError("curl side failed Div(curl) == 0")
    return system


def eliminate_potentials(ps: PotentialSystem) -> JetExpr:
    """Cross-differentiate and add: returns Div Gamma (curl side cancels)."""
    return divergence([lhs for lhs, _ in ps.equations], ps.dim)


def check_gauge_invariance(ps: PotentialSystem, shift) -> bool:
    """True iff w -> w + shift leaves every equation's canonical form unchanged.

    2D expects a scalar shift for w; 3D accepts a scalar chi (shift by its
    gradient) or an explicit 3-vector.
    """
    from .jetexpr import substitute_depvar

    if ps.dim == 2:
        if isinstance(shift, (tuple, list)):
            raise SignatureMismatch("2D gauge shift is a single scalar expression")
        shifts = {"w": shift}
    else:
        if isinstance(shift, JetExpr):
            shifts = {
                p: total_derivative(shift, axis)
                for p, axis in zip(POTENTIALS_3D, (X, Y, Z))
            }
        else:
            shift = tuple(shift)
            if len(shift) != 3:
                raise SignatureMismatch("3D gauge shift needs a scalar chi or 3 components")
            shifts = dict(zip(POTENTIALS_3D, shift))

    for _, rhs in ps.equations:
        shifted = rhs
        for pot, s in shifts.items():
            shifted = substitute_depvar(shifted, pot, JetExpr.jet(pot) + s)
        if shifted != rhs:
            return False
    return True
