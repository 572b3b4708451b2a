"""Symbolic-numeric engine for conservation laws with an arbitrary f(t).

Verifies multipliers and conserved currents of divergence-form dynamical
PDEs, reduces f(t)-families to spatial-flux form, builds spatial
potential systems, extracts integral-constraint identities, and confirms
the charges numerically on periodic grids.
"""

from .jetexpr import JetExpr, total_derivative, divergence, eval_at, substitute_params
from .parsing import ParseError, SymbolTable, default_symbols, parse_expr
from .printing import to_source, vector_source
from .pde import DivForm, PdeSpec, substitute_on_solutions, substitute_with_ledger
from .variational import (AnsatzExhausted, DivergenceWitness, euler_u, invert_divergence,
                          invert_divergence_auto, is_total_spatial_divergence, spatial_euler)
from .conservation import (CurrentFamily, DivergenceIdentity, FluxVector, NotAMultiplier,
                           divergence_identity, reduce_to_spatial_flux,
                           split_by_arbitrary_function, trivializing_potentials, verify_current,
                           verify_multiplier)
from .potential import (PotentialSystem, UnsupportedDimension, build_potential_system,
                        check_gauge_invariance)
from .catalog import CatalogCorrupt, ConstraintViolation, get_entry, instantiate, load_catalog
# The numerical half (numpy, grids, evolution, quadrature) loads on first
# use (PEP 562), so the exact half never imports numpy.  A name is read
# from its module each time it is asked for, never bound here.
_NUMERICAL = {
    "grids": ("GridField", "TimeFunction", "evaluate_on_grid"),
    "evolution": ("CflViolation", "KhatEvolver", "NonIntegrableSymbol", "Trajectory", "evolve"),
    "quadrature": ("BoxSpec", "ChargeReport", "CurveSpec", "CurveNotClosed", "check_constraint",
                   "extract_source_sink", "loop_integral", "surface_integral"),
}
_OWNER = {name: module for module, names in _NUMERICAL.items() for name in names}


def __getattr__(name):
    from importlib import import_module

    if name in _NUMERICAL:
        return import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_NUMERICAL, *_OWNER})


__all__ = [name for name in __dir__() if not name.startswith("_")]
__version__ = "0.1.0"
