"""Evolution, quadrature, constraint checks, and source/sink extraction."""

import math

import numpy as np
import pytest

from topocharge.catalog import get_entry
from topocharge import grids
from topocharge.evolution import (
    KhatEvolver,
    NonIntegrableSymbol,
    _compile_terms,
    _split_time_part,
    _unit,
    evolve,
)
from topocharge.grids import GridField, SpectralEvaluator, dealias_mask, evaluate_on_grid
from topocharge.jetexpr import substitute_arbfun
from topocharge.parsing import parse_expr
from topocharge.quadrature import (
    BoxSpec,
    ChargeReport,
    CurveSpec,
    CurveNotClosed,
    check_constraint,
    cubic_values,
    extract_source_sink,
    loop_integral,
    surface_integral,
)

TWO_PI = 2.0 * math.pi


def grid_2d(n, amplitude=0.05, modes=((1, 1),)):
    x = np.arange(n) * TWO_PI / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    data = np.zeros((n, n))
    for kx, ky in modes:
        data += amplitude * np.sin(kx * X) * np.sin(ky * Y)
    return GridField(data, (TWO_PI, TWO_PI))


class TestCurves:
    def test_rectangle_closed(self):
        c = CurveSpec.rectangle(0, 1, 0, 2)
        assert c.vertices[0] == c.vertices[-1]

    def test_open_polyline_rejected(self):
        with pytest.raises(CurveNotClosed):
            CurveSpec(((0, 0), (1, 0), (1, 1), (0, 1)))


class TestLoopIntegral:
    def test_gradient_loop_is_zero(self):
        # Gamma = (w_y, -w_x) integrates to zero around any rectangle
        g = grid_2d(64, 1.0)
        gamma = (parse_expr("u_y", 2), parse_expr("-u_x", 2))
        rect = CurveSpec.rectangle(0.7, 3.9, 1.1, 5.2)
        assert abs(loop_integral(gamma, g, None, rect, method="exact")) <= 1e-12
        assert abs(loop_integral(gamma, g, None, rect, method="cubic")) <= 1e-4

    def test_kp_charge_on_evolved_field(self):
        kp = get_entry("kp")
        g = grid_2d(48)
        ev = KhatEvolver(kp.pde, g, {"sigma": 1.0})
        traj = evolve(ev, g, 0.2, n_samples=4)
        gamma = kp.charge("charge-1").flux.Gamma
        rect = CurveSpec.rectangle(0.7, 3.9, 1.1, 5.2)
        inner = CurveSpec.rectangle(1.5, 3.1, 2.0, 4.2)
        vals = [
            loop_integral(gamma, f, ut, rect, params={"sigma": 1.0}, method="exact")
            for f, ut in zip(traj.fields, traj.ut)
        ]
        vals_inner = [
            loop_integral(gamma, f, ut, inner, params={"sigma": 1.0}, method="exact")
            for f, ut in zip(traj.fields, traj.ut)
        ]
        # with exact line integrals the discrete charge vanishes identically
        assert max(abs(v) for v in vals) <= 1e-10
        assert max(abs(a - b) for a, b in zip(vals, vals_inner)) <= 1e-10



class TestCubicValues:
    # values of the per-point loop interpolator this vectorised one replaced,
    # recorded on the same seeded field and points
    RECORDED = {
        (16,): [0.3510943888971878, -0.21873992746699616, 0.09971280328323602,
                0.38495318653197375],
        (16, 20): [0.27508813647803104, 0.36582727203399246, -0.05329516464050101,
                   0.03340078233731574],
        (16, 17, 18): [0.012247562286735021, 0.1901369123362557, -0.13757772316823252,
                       -0.3785957498943827],
    }
    PERIODS = {(16,): (2.0,), (16, 20): (6.0, 3.0), (16, 17, 18): (1.0, 2.0, 3.0)}

    def test_matches_recorded_values(self):
        rng = np.random.default_rng(7)
        for shape, want in self.RECORDED.items():
            data = rng.random(shape) - 0.5
            pts = 8.0 * rng.random((4, len(shape))) - 1.0
            got = cubic_values(data, self.PERIODS[shape], pts)
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_nodes_reproduce_grid_values(self):
        rng = np.random.default_rng(3)
        for shape in ((16,), (16, 32), (16, 16, 32)):
            data = rng.random(shape)
            periods = tuple(n / 4.0 for n in shape)  # spacing 1/4: nodes are exact
            idx = np.stack([rng.integers(-n, 2 * n, size=50) for n in shape], axis=1)
            got = cubic_values(data, periods, idx / 4.0)
            assert np.array_equal(got, data[tuple((idx % shape).T)])


class TestSurfaceIntegral:
    def test_stokes_zero(self):
        n = 24
        x = np.arange(n) * TWO_PI / n
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        g = GridField(np.sin(X) * np.sin(Y) * np.cos(Z), (TWO_PI,) * 3)
        gamma = (parse_expr("u_y", 3), parse_expr("-u_x", 3), parse_expr("0", 3))
        box = BoxSpec.cube(0.5, 4.0, 0.8, 5.0, 1.0, 4.4)
        assert abs(surface_integral(gamma, g, None, box, method="exact")) <= 1e-12

    def test_shear_phi_charge_and_deformation(self):
        shear = get_entry("shear")
        n = 24
        x = np.arange(n) * TWO_PI / n
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        u0 = GridField(0.05 * np.sin(X) * np.sin(Y) * np.sin(Z), (TWO_PI,) * 3)
        params = {"alpha": 1.0, "beta": 0.5}
        gamma = shear.charge("charge-phi").flux.Gamma
        phi = parse_expr("y^2", 3, shear.symbols)  # biharmonic in (y, z)
        gamma = tuple(substitute_arbfun(c, "phi", phi) for c in gamma)

        def charge_series(u0_field, radius):
            ev = KhatEvolver(shear.pde, u0_field, params)
            delta = 2e-3
            traj = evolve(ev, u0_field, 2 * delta, n_samples=3)
            utt = (traj.ut[2] - traj.ut[0]) / (2 * delta)
            box = BoxSpec.cube(
                0.9, 0.9 + radius, 1.1, 1.1 + radius, 0.8, 0.8 + radius
            )
            return surface_integral(
                gamma, traj.fields[1], traj.ut[1], box, params=params,
                extra_fields={2: utt}, method="exact",
            )

        coarse = charge_series(u0, 2.5)
        n2 = 48
        x2 = np.arange(n2) * TWO_PI / n2
        X2, Y2, Z2 = np.meshgrid(x2, x2, x2, indexing="ij")
        u0_fine = GridField(0.05 * np.sin(X2) * np.sin(Y2) * np.sin(Z2), (TWO_PI,) * 3)
        fine = charge_series(u0_fine, 2.5)
        tol = 10.0 * max(abs(coarse - fine), 1e-10)
        assert abs(fine) <= tol
        # deformation invariance: a different box agrees within the same tolerance
        other = charge_series(u0_fine, 1.7)
        assert abs(fine - other) <= tol


class TestEvolution:
    def test_kdv_zero_data_stays_zero(self):
        kdv = get_entry("kdv_lagrangian")
        g = GridField(np.zeros(64), (TWO_PI,))
        traj = evolve(KhatEvolver(kdv.pde, g, {}), g, 0.1, n_samples=3)
        assert max(float(np.max(np.abs(f.data))) for f in traj.fields) == 0.0

    def test_kp_resolution_doubling_order(self):
        kp = get_entry("kp")
        t_end = 0.1
        sols = {}
        for n in (32, 64, 128):
            x = np.arange(n) * TWO_PI / n
            X, Y = np.meshgrid(x, x, indexing="ij")
            g = GridField(0.5 * np.sin(X) * np.sin(Y) + 0.2 * np.sin(X + Y), (TWO_PI, TWO_PI))
            ev = KhatEvolver(kp.pde, g, {"sigma": 1.0})
            traj = evolve(ev, g, t_end, n_samples=2, cfl=0.7)
            sols[n] = traj.fields[-1].data
        ref = sols[128]
        errs = {n: np.max(np.abs(sols[n] - ref[:: 128 // n, :: 128 // n])) for n in (32, 64)}
        order = math.log2(errs[32] / errs[64])
        assert order >= 3.0, (errs, order)

    def test_kdv_soliton_translates(self):
        # v = 3c sech^2(sqrt(c)/2 (x - ct)) solves v_t + v v_x + v_xxx = 0.
        # The potential evolves with u_x = v - mean(v); the Galilean shift
        # makes the profile travel at c - mean(v).  Track the correlation
        # peak and compare against a 4x-resolution reference run.
        kdv = get_entry("kdv_lagrangian")
        L, c, t_end = 40.0, 1.0, 2.0

        def peak_shift(n):
            x = np.arange(n) * L / n
            v0 = 3.0 * c / np.cosh(math.sqrt(c) / 2.0 * (x - L / 2)) ** 2
            m = v0.mean()
            w = v0 - m
            k = 2.0 * math.pi * np.fft.fftfreq(n, d=L / n)
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.where(np.abs(k) < 1e-12, 0.0, 1.0 / (1j * k))
            u0 = GridField(np.real(np.fft.ifft(np.fft.fft(w) * inv)), (L,))
            ev = KhatEvolver(kdv.pde, u0, {})
            traj = evolve(ev, u0, t_end, n_samples=2, cfl=0.7)
            v_end = np.real(np.fft.ifft(1j * k * np.fft.fft(traj.fields[-1].data))) + m
            corr = np.real(np.fft.ifft(np.fft.fft(v_end) * np.conj(np.fft.fft(v0))))
            return float(np.argmax(corr)) * L / n, m

        shift_coarse, m = peak_shift(128)
        shift_fine, _ = peak_shift(512)
        expected = (c - m) * t_end
        assert abs(shift_fine - shift_coarse) <= 2.0 * L / 128
        assert abs(shift_fine - expected) <= 0.15 * expected

    def test_kp_stable_to_t1(self):
        kp = get_entry("kp")
        g = grid_2d(32, amplitude=0.05)
        traj = evolve(KhatEvolver(kp.pde, g, {"sigma": 1.0}), g, 1.0, n_samples=3)
        assert np.all(np.isfinite(traj.fields[-1].data))
        assert float(np.max(np.abs(traj.fields[-1].data))) < 1.0

    def test_kp_constraint_violation_raises(self):
        kp = get_entry("kp")
        n = 32
        x = np.arange(n) * TWO_PI / n
        _, Y = np.meshgrid(x, x, indexing="ij")
        bad = GridField(0.05 * (1.0 + np.cos(Y)), (TWO_PI, TWO_PI))
        with pytest.raises(NonIntegrableSymbol):
            evolve(KhatEvolver(kp.pde, bad, {"sigma": 1.0}), bad, 0.02, n_samples=2)

    def test_kp_mean_zero_constraint_propagates(self):
        kp = get_entry("kp")
        g = grid_2d(32)
        traj = evolve(KhatEvolver(kp.pde, g, {"sigma": 1.0}), g, 0.2, n_samples=5)
        assert max(abs(f.integral()) for f in traj.fields) <= 1e-10

    def test_vorticity_charge_small_on_solutions(self):
        vort = get_entry("vorticity")
        n = 48
        x = np.arange(n) * TWO_PI / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        u0 = GridField(0.3 * np.sin(X) * np.sin(Y) + 0.1 * np.cos(2 * X) * np.sin(Y),
                       (TWO_PI, TWO_PI))
        gamma = vort.charge("charge-1").flux.Gamma
        rect = CurveSpec.rectangle(0.7, 3.9, 1.1, 5.2)

        def run(field, mu):
            ev = KhatEvolver(vort.pde, field, {"mu": mu})
            traj = evolve(ev, field, 0.2, n_samples=4)
            return [
                loop_integral(gamma, f, ut, rect, params={"mu": mu}, method="exact")
                for f, ut in zip(traj.fields, traj.ut)
            ]

        vals = run(u0, 0.01)
        n2 = 96
        x2 = np.arange(n2) * TWO_PI / n2
        X2, Y2 = np.meshgrid(x2, x2, indexing="ij")
        u0f = GridField(0.3 * np.sin(X2) * np.sin(Y2) + 0.1 * np.cos(2 * X2) * np.sin(Y2),
                        (TWO_PI, TWO_PI))
        vals_fine = run(u0f, 0.01)
        tol = 10.0 * max(max(abs(a - b) for a, b in zip(vals, vals_fine)), 1e-12)
        assert max(abs(v) for v in vals_fine) <= tol

    def test_step_budget_guard(self):
        from topocharge.evolution import CflViolation

        kdv = get_entry("kdv_lagrangian")
        g = GridField(np.zeros(32), (TWO_PI,))
        with pytest.raises(CflViolation):
            evolve(KhatEvolver(kdv.pde, g, {}), g, 1.0, n_samples=2, max_steps=3)

    def test_blowup_guard_threshold(self):
        # the guard reads max|u_hat|/N every 50 steps; 50 fixed steps put its
        # one reading on the final state, whose full spectrum gives the peak
        from topocharge.evolution import CflViolation

        kdv = get_entry("kdv_lagrangian")
        n, dt = 32, 2.0 ** -9
        x = np.arange(n) * TWO_PI / n
        u0 = GridField(0.3 * np.cos(x) + 0.1 * np.sin(2 * x), (TWO_PI,))
        ev = KhatEvolver(kdv.pde, u0, {})
        traj = evolve(ev, u0, 50 * dt, n_samples=2, dt=dt)
        assert traj.meta["steps"] == 50
        peak = np.max(np.abs(np.fft.fft(traj.fields[-1].data))) / n
        evolve(ev, u0, 50 * dt, n_samples=2, dt=dt, blowup=peak * (1 + 1e-9))
        with pytest.raises(CflViolation, match="blew up"):
            evolve(ev, u0, 50 * dt, n_samples=2, dt=dt, blowup=peak * (1 - 1e-9))

    def test_nv_smoke(self):
        n = 32
        x = np.arange(n) * TWO_PI / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        u0 = GridField(0.02 * np.sin(X) * np.sin(Y), (TWO_PI, TWO_PI))
        ev = KhatEvolver(get_entry("nv").pde, u0, {"alpha": 1.0, "beta": 1.0})
        traj = evolve(ev, u0, 1e-3, n_samples=3)
        assert np.all(np.isfinite(traj.fields[-1].data))



class TestReadOffEvolver:
    """KhatEvolver reads P(D) u_t = N(u) off G; compare with hand-written RHS."""

    N = 32

    def spectral(self):
        n = self.N
        k = np.fft.fftfreq(n, d=TWO_PI / n) * TWO_PI
        kx, ky = np.meshgrid(k, k, indexing="ij")
        keep = np.abs(np.fft.fftfreq(n) * n) <= n // 3
        mask = keep[:, None] & keep[None, :]
        return 1j * kx, 1j * ky, mask

    def field(self, data):
        return GridField(data, (TWO_PI, TWO_PI))

    def grid_xy(self):
        x = np.arange(self.N) * TWO_PI / self.N
        return np.meshgrid(x, x, indexing="ij")

    @staticmethod
    def pinned_inverse(symbol):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(np.abs(symbol) < 1e-12, 0.0, 1.0 / symbol)

    def test_vorticity_rhs(self):
        mu = 0.01
        X, Y = self.grid_xy()
        u0 = self.field(0.3 * np.sin(X) * np.sin(Y) + 0.1 * np.cos(2 * X) * np.sin(Y))
        dx, dy, mask = self.spectral()
        lap = dx ** 2 + dy ** 2
        u_hat = np.fft.fftn(u0.data) * mask
        w_hat = lap * u_hat
        real = lambda h: np.real(np.fft.ifftn(h))
        # Lap u_t = u_y w_x - u_x w_y + mu Lap w
        n_hat = np.fft.fftn(real(dy * u_hat) * real(dx * w_hat)
                            - real(dx * u_hat) * real(dy * w_hat)) * mask + mu * lap * w_hat
        want = real(self.pinned_inverse(lap) * n_hat)
        got = KhatEvolver(get_entry("vorticity").pde, u0, {"mu": mu}).ut_grid(u0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_nv_rhs(self):
        alpha, beta = 1.0, 0.5
        X, Y = self.grid_xy()
        u0 = self.field(0.3 * np.sin(X) * np.sin(Y) + 0.1 * np.sin(2 * X) * np.sin(3 * Y))
        dx, dy, mask = self.spectral()
        u_hat = np.fft.fftn(u0.data) * mask
        v_hat = dx * dy * u_hat
        real = lambda h: np.real(np.fft.ifftn(h))
        v = real(v_hat)
        # D_x D_y u_t = -alpha (v u_xx)_x - beta (v u_yy)_y - (D_x^3 + D_y^3) v
        n_hat = (-alpha * dx * np.fft.fftn(v * real(dx ** 2 * u_hat))
                 - beta * dy * np.fft.fftn(v * real(dy ** 2 * u_hat))) * mask \
            - (dx ** 3 + dy ** 3) * v_hat
        want = real(self.pinned_inverse(dx * dy) * n_hat)
        got = KhatEvolver(get_entry("nv").pde, u0, {"alpha": alpha, "beta": beta}).ut_grid(u0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def full_symbol(shape, periods, spatial):
    """prod_a (i k_a)^spatial[a] on the full fftn spectrum."""
    out = np.ones(shape, dtype=complex)
    for axis, n in enumerate(spatial[: len(shape)]):
        k = TWO_PI * np.fft.fftfreq(shape[axis], d=periods[axis] / shape[axis])
        out = out * ((1j * k) ** n).reshape([-1 if a == axis else 1 for a in range(len(shape))])
    return out


class FullSpectrumEvaluator(SpectralEvaluator):
    """Reference jets from the full complex spectrum: real(ifftn(symbol * fftn))."""

    def jet(self, mi):
        data = np.asarray(self.fields[mi[0]], dtype=float)
        if not any(mi[1:]):
            return data
        symbol = full_symbol(data.shape, self.grid.periods, mi[1:])
        return np.real(np.fft.ifftn(symbol * np.fft.fftn(data)))


def full_spectrum_ut(pde, field, params):
    """Reference u_t of P(D) u_t = N(u) from full fftn spectra and 2/3 masks."""
    shape, periods = field.shape, field.periods
    mask = dealias_mask(shape)
    u_hat = np.fft.fftn(field.data) * mask

    def symbol(mi):
        return full_symbol(shape, periods, mi[1:])

    def spectrum(e):  # linear terms exactly, products dealiased
        out = np.zeros(shape, dtype=complex)
        for c, jets in _compile_terms(e, params):
            if len(jets) == 1 and jets[0][1] == 1:
                out += c * symbol(jets[0][0]) * u_hat
                continue
            value = np.full(shape, c)
            for mi, p in jets:
                value = value * np.real(np.fft.ifftn(symbol(mi) * u_hat)) ** p
            out += np.fft.fftn(value) * mask
        return out

    div = pde.div_form
    if div is not None:
        k = div.k_axis - 1
        P = symbol((0,) + _unit(k))
        through = spectrum(div.F[k])
        rest = sum((symbol((0,) + _unit(j)) * spectrum(div.F[j])
                    for j in range(pde.dim) if j != k), np.zeros(shape, dtype=complex))
    else:
        P_u, N = _split_time_part(pde)
        P = sum(c * symbol(jets[0][0]) for c, jets in _compile_terms(P_u, params))
        through, rest = 0.0, spectrum(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_P = np.where(np.abs(P) < 1e-12, 0.0, 1.0 / P)
    return np.real(np.fft.ifftn(through + rest * inv_P))


# 1D to 3D, odd and even lengths in every position, unequal periods
PARITY_SHAPES = {
    "kdv_lagrangian": (64,),
    "kp": (32, 24),
    "umkp": (24, 33),
    "shear": (16, 18, 17),
    "nv": (32, 32),
    "vorticity": (33, 32),
}


class TestHalfSpectrumParity:
    """The rfftn half-spectrum numerics against full-fftn references.

    White-noise data carry weight at every mode, Nyquist modes included,
    so the symbols must match the full spectrum's real part there too.
    """

    @pytest.mark.parametrize("name", list(PARITY_SHAPES))
    def test_matches_full_spectrum(self, name, monkeypatch):
        entry = get_entry(name)
        shape = PARITY_SHAPES[name]
        rng = np.random.default_rng(7)
        periods = tuple(TWO_PI * (1.0 + 0.25 * a) for a in range(len(shape)))
        field = GridField(0.1 * rng.standard_normal(shape), periods, time=0.3)
        params = {p: 0.6 + 0.2 * i for i, p in enumerate(sorted(entry.symbols.params))}

        # the constraint guard is off: white noise violates every constraint
        ev = KhatEvolver(entry.pde, field, params, mean_tol=np.inf)
        want = full_spectrum_ut(entry.pde, field, params)
        assert np.max(np.abs(ev.ut_grid(field) - want)) <= 1e-12 * np.max(np.abs(want))

        dts = {k: rng.standard_normal(shape) for k in range(1, 5)}
        phi = parse_expr("y^2*z + z", 3, entry.symbols) if name == "shear" else None
        gammas = [substitute_arbfun(g, "phi", phi) if phi else g
                  for ch in entry.charges for g in ch.flux.Gamma]
        got = [evaluate_on_grid(g, field, None, None, params, dts) for g in gammas]
        monkeypatch.setattr(grids, "SpectralEvaluator", FullSpectrumEvaluator)
        for g, value in zip(gammas, got):
            want = evaluate_on_grid(g, field, None, None, params, dts)
            assert np.max(np.abs(value - want)) <= 1e-12 * np.max(np.abs(want))


class TestSourceSink:
    def test_zero_solution(self):
        kdv = get_entry("kdv_lagrangian")
        g = GridField(np.zeros(64), (TWO_PI,))
        traj = evolve(KhatEvolver(kdv.pde, g, {}), g, 0.01, n_samples=5)
        F = parse_expr("-1/2*u_x^2 - u_xxx", 1)
        _, ws, devs = extract_source_sink(traj, F)
        assert max(abs(w) for w in ws) == 0.0
        assert max(devs) == 0.0

    def test_manufactured_forcing_recovered(self):
        kdv = get_entry("kdv_lagrangian")
        n = 128
        x = np.arange(n) * TWO_PI / n
        g = GridField(0.1 * np.sin(x), (TWO_PI,))
        h = lambda t: 0.3 * math.cos(2.0 * t)
        ev = KhatEvolver(kdv.pde, g, {})
        traj = evolve(ev, g, 0.02, n_samples=9, forcing=h)
        F = parse_expr("-1/2*u_x^2 - u_xxx", 1)
        times, ws, devs = extract_source_sink(traj, F)
        err = max(abs(w - h(t)) for t, w in zip(times, ws))
        assert err <= 1e-4
        assert max(devs) <= 1e-4


class TestConstraints:
    def test_kp_mean_zero_satisfied(self):
        g = grid_2d(32, amplitude=1.0)
        value, verdict, _ = check_constraint(parse_expr("u", 2), g)
        assert verdict == "satisfied" and abs(value) < 1e-10

    def test_kp_y_moment_violated(self):
        # u0 = sin y: the continuum integral of y*u0 over [0, 2pi]^2 is
        # -4*pi^2 (computed by hand: 2pi * int y sin y dy = 2pi * (-2pi)).
        # y*u is not cell-periodic, so the equispaced sum carries an O(h^2)
        # quadrature bias against that value.
        n = 64
        x = np.arange(n) * TWO_PI / n
        _, Y = np.meshgrid(x, x, indexing="ij")
        g = GridField(np.sin(Y), (TWO_PI, TWO_PI))
        value, verdict, _ = check_constraint(parse_expr("y*u", 2), g)
        assert verdict == "violated"
        assert abs(value + 4.0 * math.pi ** 2) <= 0.05

    def test_nv_momentum_density_satisfied(self):
        # u0 = sin x sin y: u_xx*u_xy = -sin x cos x sin y cos y integrates to 0
        g = grid_2d(64, amplitude=1.0)
        value, verdict, _ = check_constraint(parse_expr("u_xx*u_xy", 2), g)
        assert verdict == "satisfied" and abs(value) < 1e-10


def test_charge_report_roundtrip(tmp_path):
    rep = ChargeReport("charge", "demo", [0.0, 0.1], [1e-9, 2e-9], 1e-8, "conserved",
                       {"seed": 0})
    text = rep.to_text()
    assert "verdict: conserved" in text
    assert "np.float64" not in text
    p = tmp_path / "r.txt"
    p.write_text(text)
    assert p.read_text() == text
