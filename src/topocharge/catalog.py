"""Catalog of example PDEs with verified multipliers, currents, and charges.

Entries ship as YAML documents (one per PDE) in ``catalog_data/``.  Every
listed object is verified while loading: multipliers through the Euler
test, currents through the split relations on solutions, identities as
exact off-solution statements; a charge's Div Gamma|_E = 0 follows from
its current's split relations.  A load failure raises CatalogCorrupt
carrying the failing object and residual.

Fluxes a source document omits are reconstructed by divergence inversion
from the split relations.  Transcription defects in the source are never
guessed over silently: the corrected object carries a ``repair`` note
recording the printed form and the fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import yaml

from .conservation import (
    CurrentFamily,
    CurrentVerificationError,
    DivergenceIdentity,
    FluxVector,
    NotAMultiplier,
    check_family,
    current_divergence,
    divergence_identity,
    reduce_to_spatial_flux,
    split_by_arbitrary_function,
    substitute_on_solutions,
    time_part,
    verify_multiplier,
)
from .jetexpr import (
    JetExpr,
    T,
    biharmonic_rule,
    eval_at,
    param_key,
    substitute_params,
)
from .parsing import SymbolTable, default_symbols, parse_expr
from .pde import DivForm, PdeSpec, verified
from .potential import PotentialSystem, build_potential_system
from .printing import to_source
from .variational import AnsatzExhausted, invert_divergence_auto

ENTRY_FILES = (
    "kdv_lagrangian.yaml",
    "kp.yaml",
    "umkp.yaml",
    "shear.yaml",
    "nv.yaml",
    "vorticity.yaml",
)

ALIASES = {"kdv": "kdv_lagrangian", "zzk": "shear", "novikov_veselov": "nv"}


class CatalogCorrupt(RuntimeError):
    def __init__(self, entry: str, obj: str, message: str, residual=None):
        super().__init__(f"{entry}/{obj}: {message}")
        self.entry = entry
        self.object_id = obj
        self.residual = residual


class ConstraintViolation(ValueError):
    pass


@dataclass(frozen=True)
class CatalogMultiplier:
    id: str
    case: str
    Q: JetExpr
    repair: str = ""


@dataclass(frozen=True)
class CatalogCurrent:
    id: str
    case: str
    multiplier_id: str
    pairing: JetExpr
    T: JetExpr
    Phi: tuple
    family: CurrentFamily
    reconstructed: bool = False
    pairing_exact: bool = True
    repair: str = ""


@dataclass(frozen=True)
class CatalogIdentity:
    id: str
    current_id: str
    index: int
    identity: DivergenceIdentity
    repair: str = ""


@dataclass(frozen=True)
class CatalogCharge:
    id: str
    current_id: str
    flux: FluxVector
    repair: str = ""


@dataclass(frozen=True)
class CatalogPotentialSystem:
    id: str
    charge_id: str
    system: PotentialSystem


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    title: str
    dim: int
    symbols: SymbolTable
    pde: PdeSpec
    cases: dict
    case_pdes: dict
    multipliers: list
    currents: list
    identities: list
    charges: list
    potential_systems: list
    binding: dict

    def parse(self, text: str) -> JetExpr:
        """text in this entry's symbols, under the binding it was built with."""
        return _bind(parse_expr(text, self.dim, self.symbols), self.binding)

    def pde_for_case(self, case: str) -> PdeSpec:
        return self.case_pdes[case]

    def multiplier(self, obj_id: str) -> CatalogMultiplier:
        return _find(self.multipliers, obj_id, self.name)

    def current(self, obj_id: str) -> CatalogCurrent:
        return _find(self.currents, obj_id, self.name)

    def identity(self, obj_id: str) -> CatalogIdentity:
        return _find(self.identities, obj_id, self.name)

    def charge(self, obj_id: str) -> CatalogCharge:
        return _find(self.charges, obj_id, self.name)

    def repairs(self) -> list[tuple[str, str]]:
        out = []
        for group in (self.multipliers, self.currents, self.identities, self.charges):
            for obj in group:
                if obj.repair:
                    out.append((obj.id, obj.repair))
        return out


def _find(seq, obj_id: str, entry: str):
    for obj in seq:
        if obj.id == obj_id:
            return obj
    raise KeyError(f"{entry}: no object {obj_id!r}")


# -- loading -------------------------------------------------------------------


def _resolve(name: str):
    """The entry-file Path of a name ending in .yaml or .yml, else the
    catalog file of an entry name or alias."""
    if name.endswith((".yaml", ".yml")):
        return Path(name)
    fname = f"{ALIASES.get(name, name)}.yaml"
    if fname not in ENTRY_FILES:
        raise KeyError(f"unknown catalog entry {name!r}")
    return fname


# libyaml's safe loader where PyYAML was built with it
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(source):
    """The document of YAML text or an open text file, read with libyaml
    where PyYAML has it.

    A source that libyaml refuses is read again by the pure-Python loader,
    which either reads it or raises an error that quotes the failing line.
    """
    try:
        return yaml.load(source, Loader=_YAML_LOADER)
    except yaml.YAMLError:
        if not isinstance(source, str):
            source.seek(0)
        return yaml.load(source, Loader=yaml.SafeLoader)


def _read_yaml(source) -> dict:
    """The document of an entry-file Path or a catalog file name."""
    if not isinstance(source, Path):
        source = resources.files("topocharge").joinpath("catalog_data").joinpath(source)
    with source.open("r", encoding="utf-8") as fh:
        return load_yaml(fh)


def _build_symbols(doc: dict) -> SymbolTable:
    sym = default_symbols().with_deps("G")
    for name, spec in (doc.get("params") or {}).items():
        square = spec.get("square") if isinstance(spec, dict) else None
        sym = sym.with_param(name, None if square is None else Fraction(square))
    for name, spec in (doc.get("arbfuns") or {}).items():
        sig = tuple("txyz".index(ch) for ch in spec["sig"])
        rule = ()
        if spec.get("rule") == "biharmonic":
            rule = biharmonic_rule(0)
        sym = sym.with_arbfun(name, sig, rule)
    return sym


BINDING_FORMS = ("a rational, a whole sqrt(p/q), or an expression in parameters "
                 "bound before it")


def _parse_binding_value(value, dim: int, sym: SymbolTable, name: str):
    """A binding: rational or decimal text, sqrt(p/q) with p/q >= 0, or an
    expression in params.  Decimal text and a YAML float are exact, exponent
    form included (1e-5 and 1.0e-05 are 1/100000).  ValueError naming
    BINDING_FORMS for anything else."""
    text = repr(value) if isinstance(value, float) else str(value).strip()
    try:
        if text.startswith("sqrt(") and text.endswith(")"):
            square = Fraction(text[5:-1])
            if square < 0:
                raise ValueError(f"sqrt of a negative number {square}")
            return JetExpr.param(param_key(name, square))
        try:
            return JetExpr.number(Fraction(text))
        except (ValueError, ZeroDivisionError):
            return parse_expr(text, dim, sym)
    except ValueError as exc:
        raise ValueError(f"{text!r} is not {BINDING_FORMS} ({exc})") from None


def _case_bindings(doc: dict, dim: int, base_sym: SymbolTable) -> dict:
    cases = {"generic": {}}
    for case_name, raw in (doc.get("cases") or {}).items():
        sym = base_sym
        bindings = {}
        for pname, value in (raw or {}).items():
            expr = _parse_binding_value(value, dim, sym, pname)
            bindings[pname] = expr
            # later bindings in the same case may reference this one
            for k in expr.param_keys():
                if k[0] == pname and k[1]:
                    sym = sym.with_param(pname, Fraction(*k[1]))
        cases[case_name] = bindings
    return cases


def _bind(e: JetExpr, bindings: dict) -> JetExpr:
    return substitute_params(e, bindings) if bindings else e


def _case_pde(name: str, dim: int, doc: dict, sym: SymbolTable, bindings: dict) -> PdeSpec:
    P = lambda s: _bind(parse_expr(s, dim, sym), bindings)
    G = P(doc["G"])
    leading = parse_expr(doc["leading"], dim, sym)
    ((mono, coeff),) = leading.terms
    ((jet_key, exp),) = mono[1]
    if exp != 1 or coeff != 1 or mono[0] or mono[2] or mono[3]:
        raise ValueError(f"{name}: leading must be a bare jet coordinate")
    div_form = None
    if doc.get("div_form"):
        df = doc["div_form"]
        div_form = DivForm(
            "txyz".index(df["k"]),
            tuple(P(s) for s in df["F"]),
            P(df.get("factor", "1")),
        )
    return PdeSpec(
        name,
        dim,
        G,
        jet_key,
        P(doc["rhs"]),
        P(doc.get("factor", "1")),
        div_form,
        sym,
    )


def _reconstruct_fluxes(pde: PdeSpec, fun: tuple, T_coeffs: tuple, cQ: JetExpr) -> tuple:
    """Solve Div Phi_i = cQ_i G - D_t T_i - T_{i-1} for each coefficient flux."""
    fun_name = fun[0]
    n_q = max((k[2][0] for k in cQ.fun_keys() if k[0] == fun_name), default=0)
    N = max(len(T_coeffs) - 1, n_q - 1)
    T_list = list(T_coeffs) + [JetExpr.zero()] * (N + 1 - len(T_coeffs))
    fluxes = tuple(
        invert_divergence_auto(
            cQ.coefficient_of_fun_order(fun_name, i) * pde.G - time_part(T_list, i), pde.dim
        ).components
        for i in range(N + 2)
    )
    return tuple(T_list), fluxes


def _build_entry(doc: dict, overlay: dict | None = None) -> CatalogEntry:
    name = doc["name"]
    dim = int(doc["dim"])
    sym = _build_symbols(doc)
    cases = _case_bindings(doc, dim, sym)

    if overlay is not None:
        # instantiate(): a single binding replaces the case system; objects
        # are kept when their case equations hold under the user binding.
        kept_cases = {
            cn: b for cn, b in cases.items() if _case_consistent(b, overlay)
        }
        cases = {cn: dict(overlay) for cn in kept_cases}
        cases.setdefault("generic", dict(overlay))

    # A case equation equal to one already built here or in the cached
    # verified entry reuses that PdeSpec, and so its restriction images and
    # the memo of the checks that passed on it (pde.verified): a check meets
    # its key again only when every input is equal.  PdeSpec is unhashable
    # (SymbolTable holds dicts): scan.
    cached = _CACHE.get(f"{name}.yaml")
    shared = list(cached.case_pdes.values()) if cached else []
    case_pdes = {}
    for cn, b in cases.items():
        spec = _case_pde(name, dim, doc, sym, b)
        case_pdes[cn] = next((s for s in shared if s == spec), spec)
        shared.append(case_pdes[cn])
    pde = case_pdes["generic"]
    P = lambda s, b: _bind(parse_expr(str(s), dim, sym), b)

    multipliers = []
    for m in doc.get("multipliers") or []:
        case = m.get("case", "generic")
        if case not in cases:
            continue
        Q = P(m["Q"], cases[case])
        cpde = case_pdes[case]
        try:
            verified(cpde, ("multiplier", Q), lambda: verify_multiplier(cpde, Q))
        except NotAMultiplier as exc:
            raise CatalogCorrupt(name, m["id"], str(exc), exc.residual) from None
        multipliers.append(
            CatalogMultiplier(m["id"], case, Q, m.get("repair", ""))
        )

    currents = []
    for c in doc.get("currents") or []:
        case = c.get("case", "generic")
        if case not in cases:
            continue
        cpde = case_pdes[case]
        bindings = cases[case]
        pairing = P(c.get("pairing", "1"), bindings)
        mult = _find(multipliers, c["multiplier"], name)
        cQ = pairing * mult.Q
        T_expr = P(c["T"], bindings)
        reconstructed = False
        if c.get("Phi") == "reconstruct":
            fam0 = split_by_arbitrary_function(cpde, T_expr, (JetExpr.zero(),) * dim, check=False)
            fun = fam0.fun or ("f", (T,), ())
            try:
                T_coeffs, flux_coeffs = verified(
                    cpde, ("reconstruct", fun, fam0.T_coeffs, cQ),
                    lambda: _reconstruct_fluxes(cpde, fun, fam0.T_coeffs, cQ))
            except AnsatzExhausted as exc:
                raise CatalogCorrupt(name, c["id"], f"flux reconstruction failed: {exc}") from None
            family = CurrentFamily(dim, fun, T_coeffs, flux_coeffs)
            T_expr, Phi = family.assemble()
            reconstructed = True
        else:
            Phi = tuple(P(s, bindings) for s in c["Phi"])
            family = split_by_arbitrary_function(cpde, T_expr, Phi, check=False)
        try:
            check_family(cpde, family)
        except CurrentVerificationError as exc:
            raise CatalogCorrupt(name, c["id"], str(exc), exc.residuals) from None
        exact = current_divergence(cpde, T_expr, Phi) - cQ * cpde.G
        pairing_exact = exact.is_zero()
        if not pairing_exact:
            on_sol = substitute_on_solutions(exact, cpde)
            if not on_sol.is_zero():
                raise CatalogCorrupt(
                    name, c["id"], "multiplier pairing fails on solutions", on_sol
                )
        currents.append(
            CatalogCurrent(
                c["id"], case, c["multiplier"], pairing, T_expr, Phi, family,
                reconstructed, pairing_exact, c.get("repair", ""),
            )
        )

    identities = []
    for ident in doc.get("identities") or []:
        try:
            cur = _find(currents, ident["current"], name)
        except KeyError:
            continue  # source current excluded by the active instantiation
        cpde = case_pdes[cur.case]
        idx = int(ident.get("index", 0))
        try:
            result = verified(cpde, ("identity", cur.family, idx),
                              lambda: divergence_identity(cpde, cur.family, idx))
        except (CurrentVerificationError, AssertionError) as exc:
            raise CatalogCorrupt(name, ident["id"], str(exc)) from None
        if ident.get("R"):
            expected = P(ident["R"], cases[cur.case])
            if result.R != expected:
                raise CatalogCorrupt(
                    name, ident["id"],
                    f"R(G) mismatch: computed {to_source(result.R)}, "
                    f"expected {to_source(expected)}",
                    result.R - expected,
                )
        if ident.get("R_touches"):
            have = {k[1][T] for k in result.R.jet_keys() if k[0] == "G"}
            want = {int(i) for i in ident["R_touches"]}
            if not want <= have:
                raise CatalogCorrupt(
                    name, ident["id"],
                    f"R(G) touches D_t^i G for i in {sorted(have)}, expected {sorted(want)}",
                )
        identities.append(
            CatalogIdentity(ident["id"], ident["current"], idx, result, ident.get("repair", ""))
        )

    charges = []
    for ch in doc.get("charges") or []:
        try:
            cur = _find(currents, ch["current"], name)
        except KeyError:
            continue
        # the current's split relations, checked above, give Div Gamma|_E = 0
        flux = reduce_to_spatial_flux(cur.family, case_pdes[cur.case])
        if ch.get("printed_gamma"):
            printed = tuple(P(s, cases[cur.case]) for s in ch["printed_gamma"])
            if printed != flux.Gamma:
                diff = tuple(a - b for a, b in zip(printed, flux.Gamma))
                raise CatalogCorrupt(
                    name, ch["id"],
                    "derived Gamma differs from the recorded printed form: "
                    + "; ".join(to_source(d) for d in diff),
                )
        charges.append(
            CatalogCharge(ch["id"], ch["current"], flux, ch.get("repair", ""))
        )

    systems = []
    for psdoc in doc.get("potential_systems") or []:
        try:
            charge = _find(charges, psdoc["charge"], name)
        except KeyError:
            continue
        system = build_potential_system(charge.flux)
        systems.append(CatalogPotentialSystem(psdoc["id"], psdoc["charge"], system))

    return CatalogEntry(
        name,
        doc.get("title", name),
        dim,
        sym,
        pde,
        cases,
        case_pdes,
        multipliers,
        currents,
        identities,
        charges,
        systems,
        dict(overlay or {}),
    )


def _case_consistent(case_bindings: dict, overlay: dict) -> bool:
    """Do the user bindings imply this case's defining equations?

    The case value may reference free parameters (resolved through the
    user bindings) but its own adjoined root constants stay fixed.
    """
    for pname, val in case_bindings.items():
        lhs = substitute_params(JetExpr.param(param_key(pname)), overlay)
        rhs = substitute_params(val, overlay, only_free=True)
        if not (lhs - rhs).is_zero():
            return False
    return True


_CACHE: dict[str, CatalogEntry] = {}


def load_catalog() -> list[CatalogEntry]:
    """All six entries, each fully verified at load; results are cached."""
    return [get_entry(f.removesuffix(".yaml")) for f in ENTRY_FILES]


def get_entry(name: str) -> CatalogEntry:
    """The verified entry of a catalog name or alias (cached), or of the
    path of an entry file."""
    source = _resolve(name)
    if isinstance(source, Path):
        return load_entry_file(source)
    if source not in _CACHE:
        _CACHE[source] = _build_entry(_read_yaml(source))
    return _CACHE[source]


def load_entry_file(path) -> CatalogEntry:
    """Build a user-supplied entry from a document in the catalog format."""
    return _build_entry(_read_yaml(Path(path)))


def _exact_params(doc: dict, params: dict) -> dict:
    """The exact value of each binding in params for the entry document doc.

    A value is a rational, sqrt(rational), or an expression in parameters
    bound before it in params.  ConstraintViolation, naming the parameter,
    for an undeclared name, a value that holds a coordinate, a jet, an
    arbitrary function or an unbound parameter, or one that breaks a
    declared square or constraint.
    """
    name, dim = doc["name"], int(doc["dim"])
    declared = _build_symbols(doc)
    squares = declared.params
    # values and constraints are parsed with the square rewrites stripped, so
    # that a relation survives to be tested and a parameter named before its
    # binding stays a free key
    sym = replace(declared, params=dict.fromkeys(squares))
    overlay: dict[str, JetExpr] = {}
    for pname, value in params.items():
        if pname not in squares:
            raise ConstraintViolation(f"{name}: unknown parameter {pname!r}")
        try:
            expr = _bind(_parse_binding_value(value, dim, sym, pname), overlay)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConstraintViolation(f"{name}: parameter {pname!r}: {exc}") from None
        if expr.var_degree() or expr.jet_keys() or expr.fun_keys():
            raise ConstraintViolation(
                f"{name}: parameter {pname!r} must be a constant, got {value!r}")
        unbound = sorted(k[0] for k in expr.param_keys() if not k[1])
        if unbound:
            raise ConstraintViolation(f"{name}: parameter {pname!r} names "
                                      f"{', '.join(unbound)}, which is not bound before it")
        if squares[pname] is not None and not (expr * expr - squares[pname]).is_zero():
            raise ConstraintViolation(
                f"{name}: parameter {pname!r} must satisfy {pname}^2 = {squares[pname]}")
        overlay[pname] = expr
    # an undetermined (still symbolic) probe is not a violation
    for text in doc.get("constraints") or []:
        probe = _bind(parse_expr(text, dim, sym), overlay)
        if not probe.param_keys() and not probe.is_zero():
            raise ConstraintViolation(
                f"{name}: constraint {text!r} violated ({to_source(probe)} != 0)")
    return overlay


def exact_params(name: str, params: dict) -> dict[str, JetExpr]:
    """The exact value of each binding in params for the entry name, refused
    as instantiate refuses it (see _exact_params)."""
    return _exact_params(_read_yaml(_resolve(name)), params)


def numeric_params(overlay: dict) -> dict[str, float]:
    """The float of each exact binding; a root sqrt(p/q) is the positive root."""
    return {p: eval_at(e, params={k: math.sqrt(k[1][0] / k[1][1]) for k in e.param_keys()})
            for p, e in overlay.items()}


def instantiate(name: str, params: dict) -> CatalogEntry:
    """Bind parameters to exact values and verify the entry under them.

    name is a catalog entry, an alias or the path of an entry file; no
    params is the entry itself.  Values are rational text ("1", "-1/2"),
    "sqrt(p/q)" for adjoined roots, or expressions in previously bound
    parameters.

    Each check runs once per (case equation, inputs) in a process: a case
    equation equal to one of the loaded entry's shares its PdeSpec, and
    with it the memo of the checks that passed there (pde.verified).  So a
    binding that is a case's own (e.g. the integrable umKP case) reuses that
    case's multiplier, split-relation, flux-reconstruction, identity,
    Div Gamma and certificate results from an earlier load, while an object
    whose bound inputs differ is verified anew.  The comparisons with the
    document (an identity's R, a printed Gamma) run every time.
    """
    if not params:
        return get_entry(name)
    doc = _read_yaml(_resolve(name))
    return _build_entry(doc, overlay=_exact_params(doc, params))
