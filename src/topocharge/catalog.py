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

from .conservation import (CurrentFamily, CurrentVerificationError, DivergenceIdentity,
                           FluxVector, NotAMultiplier, check_family, current_divergence,
                           divergence_identity, reduce_to_spatial_flux,
                           split_by_arbitrary_function, substitute_on_solutions, time_part,
                           verify_multiplier)
from .jetexpr import JetExpr, T, biharmonic_rule, eval_at, param_key, substitute_params
from .parsing import SymbolTable, default_symbols, parse_expr
from .pde import DivForm, PdeError, PdeSpec, verified
from .printing import to_source
from .schema import ENTRY, UsageError, _read, _references, load_yaml
from .variational import AnsatzExhausted, invert_divergence_auto

ENTRY_FILES = ("kdv_lagrangian.yaml", "kp.yaml", "umkp.yaml", "shear.yaml", "nv.yaml",
               "vorticity.yaml")

ALIASES = {"kdv": "kdv_lagrangian", "zzk": "shear", "novikov_veselov": "nv"}


class CatalogCorrupt(RuntimeError):
    def __init__(self, entry: str, obj: str, message: str, residual=None):
        super().__init__(f"{entry}/{obj}: {message}" if obj else f"{entry}: {message}")
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
        return [(obj.id, obj.repair) for group in (self.multipliers, self.currents,
                                                    self.identities, self.charges)
                for obj in group if obj.repair]


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


def _read_yaml(source) -> dict:
    """The document of an entry-file Path or a catalog file name, read
    against schema.ENTRY: a refusal raises CatalogCorrupt naming the entry
    (the file's stem) and the key path."""
    if not isinstance(source, Path):
        source = resources.files("topocharge").joinpath("catalog_data").joinpath(source)
    with source.open("r", encoding="utf-8") as fh:
        doc = load_yaml(fh)
    try:
        return _references(_read(doc, ENTRY, noun="catalog entry"))
    except UsageError as exc:
        raise CatalogCorrupt(Path(source.name).stem, "", str(exc)) from None


def _build_symbols(doc: dict) -> SymbolTable:
    sym = default_symbols().with_deps("G")
    for name, spec in doc["params"].items():
        sym = sym.with_param(name, spec["square"])
    for name, spec in doc["arbfuns"].items():
        sym = sym.with_arbfun(name, spec["sig"], biharmonic_rule(0) if spec["rule"] else ())
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


def _case_bindings(doc: dict, base_sym: SymbolTable) -> dict:
    cases = {"generic": {}}
    for case_name, raw in doc["cases"].items():
        sym = base_sym
        bindings = cases[case_name] = {}
        for pname, value in raw.items():
            try:
                expr = bindings[pname] = _parse_binding_value(value, doc["dim"], sym, pname)
            except (ValueError, ZeroDivisionError) as exc:
                raise CatalogCorrupt(doc["name"], f"cases.{case_name}.{pname}", str(exc)) from None
            # later bindings in the same case may reference this one
            for k in expr.param_keys():
                if k[0] == pname and k[1]:
                    sym = sym.with_param(pname, Fraction(*k[1]))
    return cases


def _bind(e: JetExpr, bindings: dict) -> JetExpr:
    return substitute_params(e, bindings) if bindings else e


def _case_pde(doc: dict, sym: SymbolTable, bindings: dict) -> PdeSpec:
    name, dim = doc["name"], doc["dim"]
    P = lambda s: _bind(parse_expr(s, dim, sym), bindings)
    leading = parse_expr(doc["leading"], dim, sym)
    jets = list(leading.jet_keys())
    if len(jets) != 1 or leading != JetExpr.jet(*jets[0]):
        raise PdeError(f"{name}: leading must be a bare jet coordinate")
    df = doc["div_form"] if "div_form" in doc else None
    div_form = df and DivForm(df["k"], tuple(P(s) for s in df["F"]), P(df["factor"]))
    return PdeSpec(name, dim, P(doc["G"]), jets[0], P(doc["rhs"]), P(doc["factor"]), div_form, sym)


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
    name, dim = doc["name"], doc["dim"]
    sym = _build_symbols(doc)
    cases = _case_bindings(doc, sym)

    if overlay is not None:
        # instantiate(): a single binding replaces the case system; objects
        # are kept when their case equations hold under the user binding.
        cases = {cn: dict(overlay) for cn, b in cases.items() if _case_consistent(b, overlay)}
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
        spec = _case_pde(doc, sym, b)
        case_pdes[cn] = next((s for s in shared if s == spec), spec)
        shared.append(case_pdes[cn])
    pde = case_pdes["generic"]
    P = lambda s, b: _bind(parse_expr(s, dim, sym), b)

    # an object is dropped only where an instantiate overlay dropped its case
    multipliers = []
    for m in doc["multipliers"]:
        if (case := m["case"]) not in cases:
            continue
        Q = P(m["Q"], cases[case])
        cpde = case_pdes[case]
        try:
            verified(cpde, ("multiplier", Q), lambda: verify_multiplier(cpde, Q))
        except NotAMultiplier as exc:
            raise CatalogCorrupt(name, m["id"], str(exc), exc.residual) from None
        multipliers.append(CatalogMultiplier(m["id"], case, Q, m["repair"]))

    currents = []
    for c in doc["currents"]:
        if (case := c["case"]) not in cases:
            continue
        cpde = case_pdes[case]
        bindings = cases[case]
        pairing = P(c["pairing"], bindings)
        mult = _find(multipliers, c["multiplier"], name)
        cQ = pairing * mult.Q
        T_expr = P(c["T"], bindings)
        reconstructed = False
        if c["Phi"] == "reconstruct":
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
                raise CatalogCorrupt(name, c["id"], "multiplier pairing fails on solutions", on_sol)
        currents.append(CatalogCurrent(c["id"], case, c["multiplier"], pairing, T_expr, Phi, family,
                                       reconstructed, pairing_exact, c["repair"]))

    case_of = {c["id"]: c["case"] for c in doc["currents"]}
    identities = []
    for ident in doc["identities"]:
        if case_of[ident["current"]] not in cases:
            continue
        cur = _find(currents, ident["current"], name)
        cpde = case_pdes[cur.case]
        idx = ident["index"]
        try:
            result = verified(cpde, ("identity", cur.family, idx),
                              lambda: divergence_identity(cpde, cur.family, idx))
        except (CurrentVerificationError, AssertionError) as exc:
            raise CatalogCorrupt(name, ident["id"], str(exc)) from None
        if "R" in ident:
            expected = P(ident["R"], cases[cur.case])
            if result.R != expected:
                raise CatalogCorrupt(
                    name, ident["id"],
                    f"R(G) mismatch: computed {to_source(result.R)}, "
                    f"expected {to_source(expected)}",
                    result.R - expected,
                )
        if "R_touches" in ident:
            have = {k[1][T] for k in result.R.jet_keys() if k[0] == "G"}
            want = set(ident["R_touches"])
            if not want <= have:
                raise CatalogCorrupt(
                    name, ident["id"],
                    f"R(G) touches D_t^i G for i in {sorted(have)}, expected {sorted(want)}",
                )
        identities.append(CatalogIdentity(ident["id"], ident["current"], idx, result,
                                          ident["repair"]))

    charges = []
    for ch in doc["charges"]:
        if case_of[ch["current"]] not in cases:
            continue
        cur = _find(currents, ch["current"], name)
        # the current's split relations, checked above, give Div Gamma|_E = 0
        flux = reduce_to_spatial_flux(cur.family, case_pdes[cur.case])
        if "printed_gamma" in ch:
            printed = tuple(P(s, cases[cur.case]) for s in ch["printed_gamma"])
            if printed != flux.Gamma:
                diff = tuple(a - b for a, b in zip(printed, flux.Gamma))
                raise CatalogCorrupt(
                    name, ch["id"],
                    "derived Gamma differs from the recorded printed form: "
                    + "; ".join(to_source(d) for d in diff),
                )
        charges.append(CatalogCharge(ch["id"], ch["current"], flux, ch["repair"]))

    return CatalogEntry(name, doc["title"], dim, sym, pde, cases, case_pdes, multipliers,
                        currents, identities, charges, dict(overlay or {}))


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
    declared square.
    """
    name, dim = doc["name"], doc["dim"]
    declared = _build_symbols(doc)
    squares = declared.params
    # values are parsed with the square rewrites stripped, so that a square
    # survives to be tested and a parameter named before its binding stays a
    # free key
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
