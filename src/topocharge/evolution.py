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

Time stepping is classical RK4 with a step controlled by the largest
linear spectral symbol over the 2/3-dealiased modes plus an advective
estimate; products are dealiased by the 2/3 rule (also used, as a
documented approximation, for the cubic umKP nonlinearity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import GridField, SpectralEvaluator, dealias_mask, ik_symbol, to_grid
from .jetexpr import JetExpr, T
from .pde import PdeSpec
from .printing import to_source

RK4_IMAG_LIMIT = 2.8


class EvolutionError(RuntimeError):
    pass


class CflViolation(EvolutionError):
    pass


class NonIntegrableSymbol(EvolutionError):
    """Inverse gradient applied to a field with a nonzero zero mode."""


@dataclass
class Trajectory:
    times: list
    fields: list  # GridField snapshots
    ut: list  # du/dt arrays matching fields
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)


def _compile_terms(e: JetExpr, params: dict) -> list:
    """[(float coeff, ((jet multi-index, power), ...))] with parameters bound."""
    out = []
    for mono, coeff in e.terms:
        c = float(coeff)
        if mono[0]:
            raise EvolutionError("explicit t/x/y/z dependence is not supported in evolution")
        if mono[2]:
            raise EvolutionError("arbitrary functions are not supported in evolution")
        for key, p in mono[3]:
            if key[0] not in params:
                raise EvolutionError(f"parameter {key[0]!r} needs a numeric value")
            c *= float(params[key[0]]) ** p
        jets = []
        for key, p in mono[1]:
            if key[0] != "u" or key[1][T] != 0:
                raise EvolutionError("evolution right-hand sides must be spatial u-jets")
            jets.append((key[1], p))
        out.append((c, tuple(jets)))
    return out


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


def _linear(blocks: list):
    """Total linear symbol of (outer, linear, nonlinear) term blocks."""
    return sum((L if outer is None else outer * L) for outer, L, _nl in blocks)


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
        mask = dealias_mask(grid.shape)
        self.mask = mask[..., : grid.shape[-1] // 2 + 1]
        self.ev = SpectralEvaluator(grid)
        self.mean_tol = mean_tol

        div = pde.div_form
        if div is not None:
            factor = _compile_terms(div.factor, params)
            if len(factor) != 1 or factor[0][1]:
                raise EvolutionError("divergence-form factor must be a numeric unit")
            k = div.k_axis - 1
            P_u = JetExpr.jet("u", (0,) + _unit(k))
            through = [(None, div.F[k])]
            inverted = [(ik_symbol(grid, _unit(j)), div.F[j])
                        for j in range(self.dim) if j != k]
        else:
            P_u, N = _split_time_part(pde)
            through, inverted = [], [(None, N)]
        self.through = [self._block(outer, e, params) for outer, e in through]
        self.inverted = [self._block(outer, e, params) for outer, e in inverted]

        P = self._symbol(_split_linear(_compile_terms(P_u, params))[0])
        self._pinned = np.abs(P) < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            self._inv_P = np.where(self._pinned, 0.0, 1.0 / P)
        self._P_text = to_source(P_u)
        # effective linear symbol for the time-step estimate; |symbol| is even
        # in k, so its maximum over the half-spectrum is that of the full one
        L_tot = _linear(self.through) + _linear(self.inverted) * self._inv_P
        self._sym_max = float(np.max(np.abs(L_tot * self.mask)))
        self._kmax = max(float(np.max(np.abs(grid.wavenumbers(a) * mask)))
                         for a in range(self.dim))

    def _symbol(self, linear: list) -> np.ndarray:
        out = np.zeros(self.mask.shape, dtype=complex)
        for c, mi in linear:
            out = out + c * ik_symbol(self.grid, mi[1:])
        return out

    def _block(self, outer, e: JetExpr, params: dict) -> tuple:
        """(outer symbol or None, linear symbol, nonlinear terms) of one term group."""
        linear, nonlinear = _split_linear(_compile_terms(e, params))
        return outer, self._symbol(linear), nonlinear

    def _apply(self, blocks: list, u_hat: np.ndarray):
        out = 0.0
        for outer, L, nonlinear in blocks:
            F = L * u_hat
            if nonlinear:
                F = F + np.fft.rfftn(self.ev.terms(nonlinear)) * self.mask
            out = out + (F if outer is None else outer * F)
        return out

    def rhs_hat(self, u_hat: np.ndarray, t: float, forcing=None) -> np.ndarray:
        self.ev.reset(u_hat)
        ut_hat = self._apply(self.through, u_hat)
        if self.inverted:
            rest = self._apply(self.inverted, u_hat)
            plane = np.abs(rest[self._pinned])
            scale = float(np.max(np.abs(rest)))
            if plane.size and scale > 0 and float(plane.max()) > self.mean_tol * max(scale, 1.0):
                raise NonIntegrableSymbol(
                    f"inverting P(D) (P(D)u = {self._P_text}) met a nonzero component "
                    f"on the zero set of P (max {float(plane.max()):.3e}); "
                    "the initial data violate the integral constraint"
                )
            ut_hat = ut_hat + rest * self._inv_P
        if forcing is not None:
            zero = (0,) * self.dim
            ut_hat[zero] += forcing(t) * self.grid.data.size
        return ut_hat

    def ut_grid(self, field: GridField, forcing=None) -> np.ndarray:
        u_hat = np.fft.rfftn(field.data) * self.mask
        return to_grid(self.rhs_hat(u_hat, field.time, forcing), field.shape)

    def dt_estimate(self, u_hat: np.ndarray, cfl: float) -> float:
        amp = float(np.max(np.abs(to_grid(u_hat, self.grid.shape))))
        rate = self._sym_max + self._kmax * (amp + amp * amp) + 1e-12
        return cfl * RK4_IMAG_LIMIT / rate


def _rk4_step(rhs, state, t, dt, forcing):
    k1 = rhs(state, t, forcing)
    k2 = rhs(state + 0.5 * dt * k1, t + 0.5 * dt, forcing)
    k3 = rhs(state + 0.5 * dt * k2, t + 0.5 * dt, forcing)
    k4 = rhs(state + dt * k3, t + dt, forcing)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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

    The state is the masked half-spectrum of u.
    """
    state = np.fft.rfftn(u0.data) * evolver.mask
    sample_times = [t_end * i / (n_samples - 1) for i in range(n_samples)] if n_samples > 1 else [0.0, t_end]
    t = 0.0
    steps = 0
    traj = Trajectory([], [], [], meta={"cfl": cfl, "dealias": "2/3 rule", "scheme": "RK4"})

    def record(tv):
        f = u0.with_data(to_grid(state, u0.shape), tv)
        traj.times.append(tv)
        traj.fields.append(f)
        traj.ut.append(evolver.ut_grid(f, forcing))

    record(0.0)
    for target in sample_times[1:]:
        while t < target - 1e-14:
            step = dt if dt is not None else evolver.dt_estimate(state, cfl)
            if not math.isfinite(step) or step <= 0:
                raise CflViolation(f"step estimate degenerate at t={t}")
            step = min(step, target - t)
            state = _rk4_step(evolver.rhs_hat, state, t, step, forcing)
            t += step
            steps += 1
            if steps > max_steps:
                raise CflViolation(f"exceeded {max_steps} steps before t_end")
            if steps % 50 == 0:
                peak = float(np.max(np.abs(state))) / u0.data.size
                if not math.isfinite(peak) or peak > blowup:
                    raise CflViolation(f"solution blew up at t={t} (peak {peak:.3e})")
        record(t)
    traj.meta["steps"] = steps
    traj.meta["dt_last"] = dt if dt is not None else evolver.dt_estimate(state, cfl)
    return traj
