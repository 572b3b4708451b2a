"""Periodic-grid evolution of catalog PDEs in the form P(D) u_t = N(u).

P is a constant-coefficient spatial operator and N a polynomial in
spatial u-jets, both read off the verified G.  With a first-order
divergence form factor * (D_k u_t - Div F) = G, P = D_k and

    u_t = F^k + P^{-1} (sum over j != k of D_j F^j),

so F^k passes straight through.  Without one, P collects the terms of G
linear in t-order-1 u-jets (the Laplacian for vorticity, D_x D_y for
Novikov-Veselov) and u_t = P^{-1} N with N = P(D) u_t - G.  The state is
the 2/3-masked half-spectrum of u: u is real, so rfftn keeps the n//2 + 1
non-negative modes of the last axis.  P^{-1} is pinned to zero on the
zero set of P's symbol, and weight fed to it there raises
NonIntegrableSymbol instead of being projected away (that failure is the
integral-constraint mechanism and must stay visible).

Products are dealiased by the 2/3 rule, which keeps a quadratic product
of masked fields alias-free when no axis length is a multiple of 3.  On
such grids a quadratic nonlinear part that is an exact divergence,
N = Div Phi (Phi from variational.invert_divergence), is evaluated as
sum_a ik_a rfftn(Phi_a) when that takes fewer transforms: KP's -u u_x
becomes D_x(-u^2/2), NV's four products two fluxes; the forms agree to
round-off.  Vorticity (as many transforms), KdV's u_x^2 (no divergence)
and the cubic umKP and shear parts (where the 2/3 rule is a documented
approximation the divergence form would alias differently) keep the
direct product.

The right-hand side is compiled once, when the evolver is built, into
rhs_hat(v) = L v + sum_i W_i rfftn(terms_i(v)): one linear symbol L, and
one complex weight W_i per nonlinear part (its mask or divergence symbol
times its term group's outer factor, and P^{-1} for an inverted group).
The same pass compiles rest(v) = R v + sum_i V_i rfftn(terms_i(v)), the
inverted groups' sum before P^{-1}; its parts are the plan's first ones,
so it reads their transforms.  The constraint guard evaluates rest on the
zero set of P alone, kept as flat indices into the half-spectrum, and
over the whole spectrum, for the scale it compares against, only when
that plane exceeds mean_tol.

Time stepping is classical RK4.  Its step is set by the frozen-coefficient
symbol of the plan: max|L| over the 2/3-dealiased modes plus, for each part
i and each group of the jets u_K it reads that share one derivative
d = d terms_i / d u_K, max_k|W_i sum_K (ik)^K| times max|d| (vorticity's
u_y (u_xxx + u_xyy) is one advection, bounded by |k_x|, not |k_x| + |k_x|/2).
The first of a step's four right-hand sides holds those jets, so the
estimate takes no transform, and a jet the plan never reads (u itself in
potential KdV) cannot shrink the step.

Each evolver compiles one stage program, the grids.SpectralEvaluator
program that every grid evaluation runs, over the distinct jets that the
parts and the rates read.  A stage runs its flat list of numpy calls,
from u_hat's band to the parts' transforms, in arrays the program owns;
rhs_hat then forms L u_hat and adds each weighted transform into its
output.  evolve owns k1 to k4 and the stage input, and forms a step's
result in k1's array, which becomes the state while the old state's
array becomes the next k1.  Every transform runs on the band of
last-axis columns that the mask keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import (GridField, SpectralEvaluator, compile_terms, dealias_mask, ik_symbol, to_grid,
                    to_spectrum)
from .jetexpr import JetExpr, T
from .pde import PdeSpec
from .printing import to_source
from .variational import AnsatzExhausted, invert_divergence, is_total_spatial_divergence

RK4_IMAG_LIMIT = 2.8


class EvolutionError(RuntimeError):
    pass


class CflViolation(EvolutionError):
    pass


class NonIntegrableSymbol(EvolutionError):
    """Inverse gradient applied to a field with a nonzero zero mode at time t."""

    def __init__(self, message: str, t: float = 0.0):
        super().__init__(message)
        self.t = t


@dataclass
class Trajectory:
    times: list
    fields: list  # GridField snapshots
    ut: list  # du/dt arrays matching fields
    meta: dict = field(default_factory=dict)


def _split_linear(terms: list):
    linear, nonlinear = [], []
    for c, jets in terms:
        if len(jets) == 1 and jets[0][1] == 1:
            linear.append((c, jets[0][0]))
        elif not jets:
            raise EvolutionError("constant source terms are not supported")
        else:
            nonlinear.append((c, jets))
    return linear, nonlinear


def _split_time_part(pde: PdeSpec) -> tuple[JetExpr, JetExpr]:
    """(P(D) u, N) with G == P(D) u_t - N, or EvolutionError."""
    P, N = [], []
    for mono, coeff in pde.G.terms:
        timed = [key for key, _p in mono[1] if key[1][T]]
        if not timed:
            N.append((-coeff, mono))
            continue
        key = timed[0]
        if len(mono[1]) != 1 or mono[1][0][1] != 1 or key[1][T] != 1:
            raise EvolutionError(
                f"{pde.name}: G is not of the form P(D) u_t = N(u) "
                f"(u_t enters a term of {to_source(JetExpr(((mono, coeff),)))})"
            )
        P.append((coeff, (mono[0], (((key[0], (0,) + key[1][1:]), 1),), mono[2], mono[3])))
    return JetExpr.from_pairs(P), JetExpr.from_pairs(N)


def _unit(axis: int) -> tuple:
    """Spatial multi-index of D_axis (axis 0 is x)."""
    return tuple(int(a == axis) for a in range(3))


def _summed(pair: tuple, u_hat: np.ndarray, hats) -> np.ndarray:
    """L u_hat + sum_i W_i hats_i for a compiled pair (L, [W_i]); `hats`
    yields the transforms of the parts in turn and may run longer."""
    L, weights = pair
    out = L * u_hat
    for weight, hat in zip(weights, hats):
        out = out + weight * hat
    return out


def _jacobian(terms: list) -> list:
    """[(jets, d)] over the jets u_mi of compiled terms, grouped by their
    derivative d = d terms / d u_mi: the jets of a group share one d."""
    out = {}
    for c, jets in terms:
        for j, (mi, p) in enumerate(jets):
            rest = jets[:j] + (((mi, p - 1),) if p > 1 else ()) + jets[j + 1:]
            out.setdefault(mi, []).append((c * p, rest))
    groups = {}
    for mi, d in out.items():
        groups.setdefault(tuple(d), []).append(mi)
    return [(mis, d) for d, mis in groups.items()]


def _divergence_flux(e: JetExpr, dim: int) -> tuple | None:
    """Phi with Div Phi == the nonlinear part N of e, when N is quadratic,
    Phi is free of x, y, z, and evaluating sum_a D_a Phi_a takes fewer
    transforms (distinct jets plus forward transforms) than N itself; else None."""
    N = JetExpr.from_pairs((c, m) for m, c in e.terms if sum(p for _k, p in m[1]) >= 2)
    if N.jet_degree() != 2 or not is_total_spatial_divergence(N, dim):
        return None
    try:
        phi = tuple(invert_divergence(N, dim, var_bounds=0))
    except AnsatzExhausted:
        return None
    cost = len(set().union(*(p.jet_keys() for p in phi))) + sum(not p.is_zero() for p in phi)
    return phi if cost < len(N.jet_keys()) + 1 else None


class KhatEvolver:
    """Evolver for P(D) u_t = N(u); P and N are read off the PDE's G.

    Terms of N that P^{-1} need not touch (F^k of a divergence form) pass
    straight through; the others go through the pinned inverse of P.
    """

    def __init__(self, pde: PdeSpec, grid: GridField, params: dict | None = None,
                 mean_tol: float = 1e-8):
        params = params or {}
        self.pde = pde
        self.dim = grid.dim
        if pde.dim != grid.dim:
            raise EvolutionError("grid dimension does not match the PDE")
        self.grid = grid
        self.mask = dealias_mask(grid.shape)[..., : grid.shape[-1] // 2 + 1]
        # the last-axis columns the mask keeps are the band every transform runs on
        self._band = int(np.flatnonzero(self.mask.reshape(-1, self.mask.shape[-1]).any(0))[-1]) + 1
        self.ev = SpectralEvaluator(grid, self._band)
        self.mean_tol = mean_tol

        div = pde.div_form
        if div is not None:
            factor = compile_terms(div.factor, params)
            if len(factor) != 1 or factor[0][1]:
                raise EvolutionError("divergence-form factor must be a numeric unit")
            k = div.k_axis - 1
            P_u = JetExpr.jet("u", (0,) + _unit(k))
            groups = [(ik_symbol(grid, _unit(j)), div.F[j]) for j in range(self.dim) if j != k]
            groups.append((None, div.F[k]))
        else:
            P_u, N = _split_time_part(pde)
            groups = [(1.0, N)]

        P = self._symbol(_split_linear(compile_terms(P_u, params))[0])
        self._pinned = np.abs(P) < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_P = np.where(self._pinned, 0.0, 1.0 / P)
        self._P_text = to_source(P_u)
        # the plan and rest of the module docstring, the inverted groups (an
        # outer factor, None for F^k) first, in one pass over the term groups
        self._L, self._parts, rest_L, rest_w = 0, [], 0, []
        for outer, e in groups:
            L, parts = self._block(e, params)
            s = 1.0 if outer is None else outer * inv_P
            self._L = self._L + s * L
            self._parts += [(s * w, terms) for w, terms in parts]
            if outer is not None:
                rest_L = rest_L + outer * L
                rest_w += [outer * w for w, _terms in parts]
        self._rest = (rest_L, rest_w)
        # the zero set of P as flat indices into the half-spectrum, and rest
        # taken there; rest_L stays 0 without an inverted group
        at = np.flatnonzero(self._pinned)
        self._plane = ((at, (rest_L.take(at), [w.take(at) for w in rest_w]))
                       if at.size and isinstance(rest_L, np.ndarray) else None)
        self.rhs_calls = 0
        # |symbol| is even in k, so its maxima over the half-spectrum are those of the full one
        self._sym_max = float(np.max(np.abs(self._L * self.mask)))
        # per part i and jets u_K sharing d: (max_k |W_i sum_K (ik)^K|, d), the step's rate terms
        rates = [(float(np.max(np.abs(w * sum(ik_symbol(grid, mi[1:]) for mi in mis)))), d)
                 for w, terms in self._parts for mis, d in _jacobian(terms)]
        # the stage program: every reset of self.ev computes the jets that the
        # parts and the rates read and the parts' transforms, into its hats
        numbered = self.ev.program(*(terms for _w, terms in self._parts), *(d for _s, d in rates),
                                   spectra=len(self._parts))
        self._weighted = [(w, hat) for (w, _terms), hat in zip(self._parts, self.ev.hats)]
        self._rates = [(s, d) for (s, _d), d in zip(rates, numbered[len(self._parts):])]

    def _symbol(self, linear: list) -> np.ndarray:
        out = np.zeros(self.mask.shape, dtype=complex)
        for c, mi in linear:
            out = out + c * ik_symbol(self.grid, mi[1:])
        return out

    def _block(self, e: JetExpr, params: dict) -> tuple:
        """(L, [(weight, compiled terms)]) of one term group: its nonlinear part
        is the masked transform of the direct product, or the masked D_a of
        a divergence-form flux Phi."""
        linear, nonlinear = _split_linear(compile_terms(e, params))
        # a quadratic product is alias-free on the 2/3 modes unless 3 | n
        phi = (_divergence_flux(e, self.dim) if nonlinear and all(n % 3 for n in self.grid.shape)
               else None)
        if phi is None:
            parts = [(self.mask, nonlinear)] if nonlinear else []
        else:
            parts = [(ik_symbol(self.grid, _unit(a)) * self.mask, compile_terms(p, params))
                     for a, p in enumerate(phi) if not p.is_zero()]
        return self._symbol(linear), parts

    def rhs_hat(self, u_hat: np.ndarray, t: float, forcing=None,
                out: np.ndarray | None = None) -> np.ndarray:
        """L u_hat + sum_i W_i hat_i, written into `out` (a new array when None);
        the stage program forms the transforms hat_i of the parts in its hats."""
        self.rhs_calls += 1
        self.ev.reset(u_hat)
        if self._plane is not None:
            self._guard(u_hat, t)
        ut_hat = np.multiply(self._L, u_hat, out=out)
        for weight, hat in self._weighted:
            hat *= weight
            ut_hat += hat
        if forcing is not None:
            zero = (0,) * self.dim
            ut_hat[zero] += forcing(t) * self.grid.data.size
        return ut_hat

    def _guard(self, u_hat: np.ndarray, t: float):
        """NonIntegrableSymbol at time t, blaming the data at t = 0 and the flow
        later, when rest (its transforms lead self.ev.hats) tops mean_tol * max(max|rest|,
        1) on the zero set of P; max|rest| is built only above mean_tol there."""
        at, plane, hats = *self._plane, self.ev.hats
        peak = float(np.abs(_summed(plane, u_hat.take(at), (h.take(at) for h in hats))).max())
        if peak <= self.mean_tol:
            return
        scale = float(np.max(np.abs(_summed(self._rest, u_hat, hats))))
        if scale > 0 and peak > self.mean_tol * max(scale, 1.0):
            raise NonIntegrableSymbol(
                f"inverting P(D) (P(D)u = {self._P_text}) met a nonzero component "
                f"on the zero set of P (max {peak:.3e}); "
                + ("the initial data violate the integral constraint" if t == 0 else
                   f"the flow left the integral constraint at t = {t:.6g}"), t)

    def ut_grid(self, field: GridField, forcing=None) -> np.ndarray:
        u_hat = to_spectrum(field.data) * self.mask
        return to_grid(self.rhs_hat(u_hat, field.time, forcing), field.shape)

    def dt_estimate(self, u_hat: np.ndarray, cfl: float) -> float:
        """cfl * RK4_IMAG_LIMIT over the rate of the module docstring at u_hat.
        When u_hat is the array the last rhs_hat call was given (and has not
        been changed since), its jets come from that call, without a transform."""
        if not self.ev.holds(u_hat):
            self.ev.reset(u_hat)
        rate = self._sym_max + sum(s * float(np.abs(self.ev.products(d)).max())
                                   for s, d in self._rates)
        return cfl * RK4_IMAG_LIMIT / (rate + 1e-12)


def _rk4_step(rhs, state, k1, t, dt, forcing, stage=None, ks=(None, None, None)):
    """state + (dt/6)(k1 + 2 k2 + 2 k3 + k4) from k1 = rhs(state, t, forcing).

    The stage inputs state + h k are formed in turn in `stage` (an array
    like state, allocated when None), k2, k3 and k4 are written into the
    arrays `ks` (new ones where None), and the stages are combined in
    place, in that expression's association order, so the result is
    bit-identical to it; k1 holds the result.
    """
    stage = np.empty_like(state) if stage is None else stage

    def at(h, k):
        return np.add(np.multiply(k, h, out=stage), state, out=stage)

    k2 = rhs(at(0.5 * dt, k1), t + 0.5 * dt, forcing, out=ks[0])
    k3 = rhs(at(0.5 * dt, k2), t + 0.5 * dt, forcing, out=ks[1])
    k4 = rhs(at(dt, k3), t + dt, forcing, out=ks[2])
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += state
    return k1


def evolve(
    evolver: KhatEvolver,
    u0: GridField,
    t_end: float,
    n_samples: int = 11,
    cfl: float = 0.5,
    dt: float | None = None,
    forcing=None,
    max_steps: int = 5_000_000,
    blowup: float = 1e8,
) -> Trajectory:
    """March to t_end with RK4, sampling the trajectory at even intervals.

    The state is the masked half-spectrum of u.  `meta` counts the steps
    and right-hand sides taken and the range of the steps' dt.  A state
    with max|u_hat|/N above `blowup` or not finite, read every 50 steps and
    at every sample after t = 0, raises CflViolation, and so does a first
    step that projects more than max_steps steps to t_end.
    """
    state = to_spectrum(u0.data) * evolver.mask
    # the step's workspace: k1 (the old state's array after each step), k2 to k4, the stage
    k1, *ks, stage = (np.empty_like(state) for _ in range(5))
    calls, steps, dt_min, dt_max = evolver.rhs_calls, 0, math.inf, 0.0
    sample_times = [t_end * i / (n_samples - 1) for i in range(n_samples)] if n_samples > 1 else [0.0, t_end]
    t = 0.0
    traj = Trajectory([], [], [], meta={"cfl": cfl, "dealias": "2/3 rule", "scheme": "RK4"})

    def record(tv):
        f = u0.with_data(to_grid(state, u0.shape), tv)
        traj.times.append(tv)
        traj.fields.append(f)
        traj.ut.append(evolver.ut_grid(f, forcing))

    def guard():
        peak = float(np.max(np.abs(state))) / u0.data.size
        if not math.isfinite(peak) or peak > blowup:
            raise CflViolation(f"solution blew up at t={t} (peak {peak:.3e})")

    record(0.0)
    for target in sample_times[1:]:
        while t < target - 1e-14:
            evolver.rhs_hat(state, t, forcing, out=k1)
            step = dt if dt is not None else evolver.dt_estimate(state, cfl)
            if not math.isfinite(step) or step <= 0:
                raise CflViolation(f"step estimate degenerate at t={t}")
            if not steps and t_end / step > max_steps:
                raise CflViolation(f"t_end={t_end} at dt={step:.3g} projects {t_end / step:.3g} "
                                   f"steps, above max_steps={max_steps}")
            step = min(step, target - t)
            dt_min, dt_max = min(dt_min, step), max(dt_max, step)
            state, k1 = _rk4_step(evolver.rhs_hat, state, k1, t, step, forcing, stage, ks), state
            t += step
            steps += 1
            if steps > max_steps:
                raise CflViolation(f"exceeded {max_steps} steps before t_end")
            if steps % 50 == 0:
                guard()
        guard()
        record(t)
    traj.meta.update(steps=steps, rhs_calls=evolver.rhs_calls - calls,
                     dt_min=dt_min if steps else None, dt_max=dt_max if steps else None)
    return traj
