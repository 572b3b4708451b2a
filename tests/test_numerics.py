"""Evolution, quadrature, constraint checks, and source/sink extraction."""

import functools
import math

import numpy as np
import pytest

from topocharge.catalog import get_entry
from topocharge import grids
from topocharge import evolution
from topocharge import quadrature
from topocharge.evolution import (
    KhatEvolver,
    NonIntegrableSymbol,
    _divergence_flux,
    _rk4_step,
    _split_linear,
    _split_time_part,
    _unit,
    evolve,
)
from topocharge.grids import (GridField, SpectralEvaluator, dealias_mask, evaluate_on_grid,
                              ik_symbol)
from topocharge.grids import compile_terms as _compile_terms
from topocharge.jetexpr import JetExpr, substitute_arbfun
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

    def test_oblique_segment_rejected(self):
        with pytest.raises(ValueError, match="axis-aligned"):
            CurveSpec(((0, 0), (1, 0), (0.5, 1), (0, 0)))


class TestLoopIntegral:
    def test_gradient_loop_is_zero(self):
        # Gamma = (w_y, -w_x) integrates to zero around any rectangle
        g = grid_2d(64, 1.0)
        gamma = (parse_expr("u_y", 2), parse_expr("-u_x", 2))
        rect = CurveSpec.rectangle(0.7, 3.9, 1.1, 5.2)
        assert abs(loop_integral(gamma, g, None, rect, method="exact")) <= 1e-12
        assert abs(loop_integral(gamma, g, None, rect, method="cubic")) <= 1e-4

    @pytest.mark.parametrize("method", ["cubic", "exact"])
    def test_clockwise_reads_minus_counter_clockwise(self, method):
        g = grid_2d(32, 1.0, modes=((1, 1), (2, 1)))
        gamma = (parse_expr("u^2 + u_x", 2), parse_expr("u*u_y", 2))
        ccw = CurveSpec.rectangle(0.7, 3.9, 1.1, 5.2)
        cw = CurveSpec(tuple(reversed(ccw.vertices)))
        value = loop_integral(gamma, g, None, ccw, method=method)
        assert abs(value) > 1e-2
        assert loop_integral(gamma, g, None, cw, method=method) == pytest.approx(-value,
                                                                               abs=1e-14)

    def test_cubic_interpolates_one_component_per_segment(self, monkeypatch):
        calls = []
        interpolate = quadrature._interpolate

        def spy(data, index, weights):
            calls.append(len(weights[0]))
            return interpolate(data, index, weights)

        monkeypatch.setattr(quadrature, "_interpolate", spy)
        g = grid_2d(32)
        gamma = (parse_expr("u_y", 2), parse_expr("-u_x", 2))
        loop_integral(gamma, g, None, CurveSpec.rectangle(0.7, 3.9, 1.1, 5.2), method="cubic")
        assert len(calls) == 4

    @pytest.mark.parametrize("method", ["cubic", "exact"])
    def test_zero_component_is_not_evaluated(self, method, monkeypatch):
        g = grid_2d(32, 1.0, modes=((1, 1), (2, 1)))
        u = parse_expr("u", 2)
        x0, x1, y0, y1 = 0.7, 3.9, 1.1, 5.2
        face = quadrature._face_integral(evaluate_on_grid(u, g), g.periods, method)
        want = face((x1, (y0, y1))) + face((x0, (y1, y0)))
        calls = []

        def spy(e, *args):
            calls.append(e)
            return evaluate_on_grid(e, *args)

        monkeypatch.setattr(quadrature, "evaluate_on_grid", spy)
        got = loop_integral((u, parse_expr("0", 2)), g, None, CurveSpec.rectangle(x0, x1, y0, y1),
                            method=method)
        assert calls == [u]
        assert got == want

    def test_zero_component_is_not_evaluated_on_a_box(self, monkeypatch):
        n = 16
        x = np.arange(n) * TWO_PI / n
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        g = GridField(np.sin(X) * np.cos(Y) + 0.3 * np.sin(Z), (TWO_PI,) * 3)
        gamma = (parse_expr("0", 3), parse_expr("u^2", 3), parse_expr("0", 3))
        calls = []

        def spy(e, *args):
            calls.append(e)
            return evaluate_on_grid(e, *args)

        box = BoxSpec.cube(0.5, 2.5, 1.0, 4.0, 0.2, 3.3)
        full = surface_integral(gamma, g, None, box, method="exact")
        monkeypatch.setattr(quadrature, "evaluate_on_grid", spy)
        assert surface_integral(gamma, g, None, box, method="exact") == full
        assert calls == [gamma[1]]

    def test_unknown_method_is_refused(self):
        zero = parse_expr("0", 2)
        with pytest.raises(ValueError, match="unknown interpolation method"):
            loop_integral((zero, zero), grid_2d(16), None, CurveSpec.rectangle(0, 1, 0, 1),
                          method="spline")

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


def trapezoid_reference(shape, periods, spans):
    """(index, Catmull-Rom weights, trapezoid weights, points) of one face,
    built the way each face integral built them before faces shared a
    cached stencil: the composite trapezoid nodes, then cubic_values's
    per-point gather index and per-axis weights."""
    nodes, weights = [], []
    for n, period, span in zip(shape, periods, spans):
        if np.isscalar(span):
            nodes.append(np.array([span]))
            weights.append(np.ones(1))
            continue
        lo, hi = span
        count = max(2, int(math.ceil(abs(hi - lo) / (period / n) * quadrature.DENSITY)) + 1)
        w = np.full(count, (hi - lo) / (count - 1))
        w[0] = w[-1] = 0.5 * w[0]
        nodes.append(np.linspace(lo, hi, count))
        weights.append(w)
    points = np.stack([c.ravel() for c in np.meshgrid(*nodes, indexing="ij")], axis=-1)
    w = functools.reduce(np.multiply.outer, weights).ravel()
    dim, npts = len(shape), len(points)
    index, cubic = [], []
    for axis in range(dim):
        n = shape[axis]
        s = points[:, axis] / (periods[axis] / n)
        i0 = np.floor(s)
        at = (npts,) + (1,) * axis + (4,) + (1,) * (dim - 1 - axis)
        index.append(((i0.astype(int)[:, None] + np.arange(-1, 3)) % n).reshape(at))
        cubic.append(np.stack(quadrature._catmull_rom_weights(s - i0), axis=-1))
    return index, cubic, w, points


def reference_face_integral(data, periods, spans):
    index, cubic, w, points = trapezoid_reference(data.shape, periods, spans)
    vals = data[tuple(index)]
    for axis in reversed(range(data.ndim)):
        vals = (vals * cubic[axis].reshape((len(points),) + (1,) * axis + (4,))).sum(axis=-1)
    return float(w @ vals)


def seeded_faces(seed, periods):
    """Forward, reversed and point-span faces of a seeded axis-aligned cell:
    one axis at a point, each other axis spanning (lo, hi) or (hi, lo)."""
    rng = np.random.default_rng(seed)
    dim = len(periods)
    faces = []
    for axis in range(dim):
        lo = [rng.uniform(-0.3, 0.5) * p for p in periods]
        hi = [a + rng.uniform(0.1, 0.9) * p for a, p in zip(lo, periods)]
        point = rng.uniform(0.0, periods[axis])
        for reverse in (False, True):
            spans = [(b, a) if reverse else (a, b) for a, b in zip(lo, hi)]
            spans[axis] = point
            faces.append(spans)
    return faces


class TestFaceStencil:
    """The cached face stencil of the cubic quadrature against the formula it caches."""

    CASES = {"loop": ((32, 24), (TWO_PI, 3.0)), "box": ((16, 20, 18), (TWO_PI, 3.0, 5.0))}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_trapezoid_formula(self, case, seed):
        shape, periods = self.CASES[case]
        data = np.random.default_rng(seed).standard_normal(shape)
        for spans in seeded_faces(seed, periods):
            index, cubic, w, points = trapezoid_reference(shape, periods, spans)
            got_index, got_cubic, got_w = quadrature._face_stencil(shape, periods, tuple(spans))
            assert (got_w == w).all()
            assert all((a == b).all() for a, b in zip(got_index, index))
            assert all((a.reshape(len(points), 4) == b).all() for a, b in zip(got_cubic, cubic))
            assert quadrature._cubic_integral(data, periods, spans) == reference_face_integral(
                data, periods, spans)

    def test_is_shared_and_read_only(self):
        shape, periods = self.CASES["loop"]
        spans = (1.0, (0.5, 2.5))
        stencil = quadrature._face_stencil(shape, periods, spans)
        assert quadrature._face_stencil(shape, periods, spans) is stencil
        with pytest.raises(ValueError):
            stencil[2][0] = 1.0

    @pytest.mark.parametrize("case", list(CASES))
    def test_other_grid_gets_its_own_stencil(self, case):
        shape, periods = self.CASES[case]
        spans = seeded_faces(4, periods)[0]
        other_shape = tuple(n + 2 for n in shape)
        other_periods = tuple(1.5 * p for p in periods)
        grids_ = [(shape, periods), (other_shape, periods), (shape, other_periods)]
        stencils = [quadrature._face_stencil(sh, pe, tuple(spans)) for sh, pe in grids_]
        assert len({id(st) for st in stencils}) == 3
        rng = np.random.default_rng(4)
        for sh, pe in grids_:
            data = rng.standard_normal(sh)
            assert quadrature._cubic_integral(data, pe, spans) == reference_face_integral(
                data, pe, spans)


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

    def test_meta_counts_rhs_calls_and_dt_range(self):
        kp = get_entry("kp")
        g = grid_2d(32, amplitude=0.05)
        ev = KhatEvolver(kp.pde, g, {"sigma": 1.0})
        ev.rhs_hat(np.fft.rfftn(g.data) * ev.mask, 0.0)  # counted by the evolver, not the run
        traj = evolve(ev, g, 0.05, n_samples=4)
        meta = traj.meta
        assert meta["steps"] > 0
        assert meta["rhs_calls"] == 4 * meta["steps"] + 4
        assert ev.rhs_calls == meta["rhs_calls"] + 1
        assert 0.0 < meta["dt_min"] <= meta["dt_max"]
        assert meta["dt_max"] * meta["steps"] >= 0.05 - 1e-12

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
        # a first step that projects more than max_steps steps to t_end is
        # not taken: the t = 0 sample and k1 are the only right-hand sides
        from topocharge.evolution import CflViolation

        kdv = get_entry("kdv_lagrangian")
        g = GridField(np.zeros(32), (TWO_PI,))
        evolver = KhatEvolver(kdv.pde, g, {})
        with pytest.raises(CflViolation, match=r"t_end=1.0 at dt=.* projects .* steps, above "
                                               r"max_steps=3$"):
            evolve(evolver, g, 1.0, n_samples=2, max_steps=3)
        assert evolver.rhs_calls == 2

    def test_step_budget_counts_the_steps_taken(self):
        # dt = 0.3 projects 3.3 steps to t_end = 1, but the samples every
        # 0.1 cut each step short, so the count runs past max_steps
        from topocharge.evolution import CflViolation

        kdv = get_entry("kdv_lagrangian")
        g = GridField(np.zeros(32), (TWO_PI,))
        with pytest.raises(CflViolation, match="exceeded 5 steps before t_end"):
            evolve(KhatEvolver(kdv.pde, g, {}), g, 1.0, n_samples=11, dt=0.3, max_steps=5)

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

    def test_constant_shift_keeps_the_step(self):
        # u -> u + c is an exact symmetry of potential KdV, whose plan reads u_x alone
        kdv = get_entry("kdv_lagrangian")
        x = np.arange(64) * TWO_PI / 64
        steps = []
        for c in (0.0, 1.0, 10.0):
            g = GridField(0.15 * np.sin(x) + c, (TWO_PI,))
            steps.append(evolve(KhatEvolver(kdv.pde, g, {}), g, 0.01, n_samples=2).meta["steps"])
        assert steps == [steps[0]] * 3

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
    """Reference jets from the full complex spectrum: real(ifftn(symbol * fftn)).
    `fills` counts the fills this class has computed."""

    fills = 0

    def fill(self, fields, hats=None):
        assert hats is None, "the reference computes jets from grid values alone"
        FullSpectrumEvaluator.fills += 1
        self._slots = []
        for mi, _order, _symbol in self._program:
            data = np.asarray(fields[mi[0]], dtype=float)
            if any(mi[1:]):
                symbol = full_symbol(data.shape, self.grid.periods, mi[1:])
                data = np.real(np.fft.ifftn(symbol * np.fft.fftn(data)))
            self._slots.append(data)


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
        fills = FullSpectrumEvaluator.fills
        for g, value in zip(gammas, got):
            want = evaluate_on_grid(g, field, None, None, params, dts)
            assert np.max(np.abs(value - want)) <= 1e-12 * np.max(np.abs(want))
        # each reference value was computed by the reference's own fill
        assert FullSpectrumEvaluator.fills - fills == len(gammas)


DIVERGENCE_PARAMS = {"kp": {"sigma": 1.0}, "nv": {"alpha": 0.7, "beta": 1.3}}


def masked_noise(shape, seed, periods=(TWO_PI, 3.0)):
    """A real field carrying weight on every mode the 2/3 rule keeps."""
    rng = np.random.default_rng(seed)
    hat = np.fft.fftn(rng.standard_normal(shape)) * dealias_mask(shape)
    return GridField(np.real(np.fft.ifftn(hat)), periods)


def evolver_pair(name, field, monkeypatch, **kwargs):
    """(the evolver as built, the same evolver forced onto direct products,
    the fluxes that _divergence_flux returned while the first was built)"""
    entry = get_entry(name)
    params = DIVERGENCE_PARAMS.get(name) or {
        p: 0.6 + 0.2 * i for i, p in enumerate(sorted(entry.symbols.params))}
    fluxes = []

    def recorded(e, dim):
        fluxes.append(_divergence_flux(e, dim))
        return fluxes[-1]

    with monkeypatch.context() as m:
        m.setattr(evolution, "_divergence_flux", recorded)
        built = KhatEvolver(entry.pde, field, params, **kwargs)
        m.setattr(evolution, "_divergence_flux", lambda e, dim: None)
        direct = KhatEvolver(entry.pde, field, params, **kwargs)
    return built, direct, fluxes


def fft_calls(call, monkeypatch, names=("rfftn", "irfftn")):
    """The names of the np.fft functions among `names` that call() calls, in order."""
    calls = []

    def counted(name, transform):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return transform(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        for name in names:
            m.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        call()
    return calls


def transforms_per_rhs(ev, u_hat, monkeypatch):
    return len(fft_calls(lambda: ev.rhs_hat(u_hat, 0.0), monkeypatch))


class TestDivergenceFlux:
    """Quadratic divergence-form nonlinearities against the direct product."""

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("name", ["kp", "nv"])
    def test_matches_direct_product(self, name, n, monkeypatch):
        field = masked_noise((n, n), seed=n)
        # noise violates NV's line-mean constraint, so its guard is off
        ev, direct, fluxes = evolver_pair(name, field, monkeypatch, mean_tol=np.inf)
        # KP's inverted group is linear, so only F^x has a nonlinear part
        assert [phi is not None for phi in fluxes] == [True]
        u_hat = np.fft.rfftn(field.data) * ev.mask
        got, want = ev.rhs_hat(u_hat, 0.0), direct.rhs_hat(u_hat, 0.0)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_kp_flux(self, monkeypatch):
        _, _, fluxes = evolver_pair("kp", masked_noise((32, 32), 1), monkeypatch)
        assert fluxes == [(parse_expr("-u^2/2", 2), parse_expr("0", 2))]

    @pytest.mark.parametrize("name, fewer, direct", [
        ("kp", 2, 3), ("nv", 5, 8), ("vorticity", 7, 7)])
    def test_transforms_per_rhs(self, name, fewer, direct, monkeypatch):
        field = masked_noise((32, 32), seed=5)
        ev, by_product, _ = evolver_pair(name, field, monkeypatch, mean_tol=np.inf)
        u_hat = np.fft.rfftn(field.data) * ev.mask
        assert transforms_per_rhs(ev, u_hat, monkeypatch) == fewer
        assert transforms_per_rhs(by_product, u_hat, monkeypatch) == direct

    # no axis length is a multiple of 3, so only the flux test decides
    @pytest.mark.parametrize("name, shape", [
        ("umkp", (32, 20)), ("shear", (16, 20, 16)), ("kdv_lagrangian", (64,)),
        ("vorticity", (32, 32))], ids=["umkp", "shear", "kdv_lagrangian", "vorticity"])
    def test_other_entries_keep_the_direct_product(self, name, shape, monkeypatch):
        field = masked_noise(shape, seed=2, periods=(TWO_PI,) * len(shape))
        ev, direct, fluxes = evolver_pair(name, field, monkeypatch, mean_tol=np.inf)
        assert all(phi is None for phi in fluxes)
        u_hat = np.fft.rfftn(field.data) * ev.mask
        assert np.array_equal(ev.rhs_hat(u_hat, 0.0), direct.rhs_hat(u_hat, 0.0))

    def test_axis_divisible_by_3_keeps_the_direct_product(self, monkeypatch):
        # on 48 points the 2/3 rule keeps |k| <= 16 and k = 16 + 16 aliases
        # onto -16, where the two forms differ; the flux is not even sought
        field = masked_noise((48, 32), 3)
        ev, direct, fluxes = evolver_pair("kp", field, monkeypatch, mean_tol=np.inf)
        assert fluxes == []
        u_hat = np.fft.rfftn(field.data) * ev.mask
        assert np.array_equal(ev.rhs_hat(u_hat, 0.0), direct.rhs_hat(u_hat, 0.0))

    @pytest.mark.parametrize("n", [32, 64])
    def test_guard_raises_on_nonzero_x_mean(self, n, monkeypatch):
        x = np.arange(n) * TWO_PI / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        bad = GridField(0.05 * np.sin(X + Y) + 0.02 * np.cos(Y), (TWO_PI, TWO_PI))
        ev, _, fluxes = evolver_pair("kp", bad, monkeypatch)
        assert fluxes[0] is not None
        with pytest.raises(NonIntegrableSymbol):
            ev.rhs_hat(np.fft.rfftn(bad.data) * ev.mask, 0.0)

    @pytest.mark.parametrize("u0, raises", [
        (lambda X, Y: 0.05 * np.sin(X) * np.sin(Y) + 0.02 * np.sin(2 * X + Y), True),
        (lambda X, Y: 0.02 * np.sin(X) * np.sin(Y), False)], ids=["violating", "satisfying"])
    def test_guard_on_a_union_of_planes(self, u0, raises):
        # NV's P = D_x D_y vanishes on the planes k_x = 0 and k_y = 0, and its
        # whole nonlinear part is inverted there; KP's inverted group is linear
        n = 32
        x = np.arange(n) * TWO_PI / n
        g = GridField(u0(*np.meshgrid(x, x, indexing="ij")), (TWO_PI, TWO_PI))
        pde = get_entry("nv").pde
        ev = KhatEvolver(pde, g, {"alpha": 1.0, "beta": 1.0})
        assert pde.div_form is None and _split_time_part(pde)[1].jet_degree() == 2
        assert ev._pinned[0].all() and ev._pinned[:, 0].all()
        u_hat = np.fft.rfftn(g.data) * ev.mask
        if raises:
            with pytest.raises(NonIntegrableSymbol, match="zero set of P"):
                ev.rhs_hat(u_hat, 0.0)
        else:
            assert np.all(np.isfinite(ev.rhs_hat(u_hat, 0.0)))

    def test_in_place_rk4_step_is_bit_identical(self):
        g = grid_2d(32, modes=((1, 1), (2, 1)))
        ev = KhatEvolver(get_entry("kp").pde, g, {"sigma": 1.0})
        state = np.fft.rfftn(g.data) * ev.mask
        t, dt = 0.1, 3e-3
        k1 = ev.rhs_hat(state, t)
        k2 = ev.rhs_hat(state + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = ev.rhs_hat(state + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = ev.rhs_hat(state + dt * k3, t + dt)
        want = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        before = state.copy()
        got = _rk4_step(ev.rhs_hat, state, k1.copy(), t, dt, None)
        assert np.array_equal(got, want)
        assert np.array_equal(state, before)

    def test_buffered_rk4_step_is_bit_identical(self):
        g = grid_2d(32, modes=((1, 1), (2, 1)))
        ev = KhatEvolver(get_entry("kp").pde, g, {"sigma": 1.0})
        state = np.fft.rfftn(g.data) * ev.mask
        t, dt = 0.1, 3e-3
        k1 = ev.rhs_hat(state, t)
        k2 = ev.rhs_hat(state + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = ev.rhs_hat(state + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = ev.rhs_hat(state + dt * k3, t + dt)
        want = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        before = state.copy()
        stage = np.full_like(state, np.nan)
        got = _rk4_step(ev.rhs_hat, state, k1.copy(), t, dt, None, stage)
        assert np.array_equal(got, want)
        assert np.array_equal(state, before)
        assert np.array_equal(stage, state + dt * k3)  # the last stage input

    def test_step_estimate_sees_only_the_state_of_its_first_stage(self, monkeypatch):
        # the stage buffer is what the evaluator holds after a step, never the state
        g = grid_2d(32, modes=((1, 1), (2, 1)))
        ev = KhatEvolver(get_entry("kp").pde, g, {"sigma": 1.0})
        seen = []
        estimate = KhatEvolver.dt_estimate

        def checked(self, u_hat, cfl):
            held = self.ev.holds(u_hat)
            got = estimate(self, u_hat, cfl)
            seen.append((held, got == estimate(self, u_hat.copy(), cfl)))
            return got

        monkeypatch.setattr(KhatEvolver, "dt_estimate", checked)
        evolve(ev, g, 0.02, n_samples=3)
        assert seen and all(held and fresh for held, fresh in seen)

    def test_step_estimate_reuses_the_first_stage(self):
        g = grid_2d(32, modes=((1, 1), (2, 1)))
        ev = KhatEvolver(get_entry("kp").pde, g, {"sigma": 1.0})
        state = np.fft.rfftn(g.data) * ev.mask
        ev.rhs_hat(state, 0.0)
        assert ev.ev.holds(state)
        assert ev.dt_estimate(state, 0.5) == ev.dt_estimate(state.copy(), 0.5)


class TestStepEstimate:
    """The RK4 step from the frozen-coefficient symbol of the compiled plan."""

    @pytest.mark.parametrize("name, shape", [
        ("kdv_lagrangian", (64,)), ("kp", (32, 32)), ("nv", (32, 32)), ("vorticity", (32, 32)),
        ("umkp", (32, 20)), ("shear", (16, 20, 16))])
    def test_no_transform_on_the_state_it_holds(self, name, shape, monkeypatch):
        field = masked_noise(shape, seed=4, periods=(TWO_PI,) * len(shape))
        ev, _, _ = evolver_pair(name, field, monkeypatch, mean_tol=np.inf)
        u_hat = np.fft.rfftn(field.data) * ev.mask
        ev.rhs_hat(u_hat, 0.0)
        held, fresh = [], []
        every = np.fft.__all__
        assert fft_calls(lambda: held.append(ev.dt_estimate(u_hat, 0.5)), monkeypatch, every) == []
        # a copy is not held, so its jets are transformed afresh, to the same estimate
        assert fft_calls(lambda: fresh.append(ev.dt_estimate(u_hat.copy(), 0.5)), monkeypatch,
                         every)
        assert held == fresh

    def test_kdv_rate(self):
        n = 256
        field = masked_noise((n,), seed=8, periods=(TWO_PI,))
        ev = KhatEvolver(get_entry("kdv_lagrangian").pde, field, {})
        u_hat = np.fft.rfft(field.data) * ev.mask
        u_x = np.fft.irfft(1j * np.arange(n // 2 + 1) * u_hat, n)
        # the plan is mask * rfft(-u_x^2/2) beside L = -(ik)^3, masked to |k| <= 85
        rate = 85 * np.max(np.abs(u_x)) + 85 ** 3
        want = 0.5 * evolution.RK4_IMAG_LIMIT / rate
        assert ev.dt_estimate(u_hat, 0.5) == pytest.approx(want, rel=1e-12)

    def test_kp_rate(self):
        g = grid_2d(64, modes=((1, 1), (2, 1)))
        ev = KhatEvolver(get_entry("kp").pde, g, {"sigma": 1.0})
        u_hat = np.fft.rfftn(g.data) * ev.mask
        u = np.fft.irfftn(u_hat, g.shape, axes=(0, 1))
        # the plan is ik_x mask * rfftn(-u^2/2) beside |L| = |k_x^3 - k_y^2/k_x|, which
        # peaks at |k_x| = 21, k_y = 0 on the masked modes
        rate = 21 * np.max(np.abs(u)) + 21 ** 3
        want = 0.5 * evolution.RK4_IMAG_LIMIT / rate
        assert ev.dt_estimate(u_hat, 0.5) == pytest.approx(want, rel=1e-12)


def on_state(ev, terms, u_hat):
    """Compiled terms evaluated on u_hat through a fresh program on ev's grid."""
    fresh = SpectralEvaluator(ev.grid)
    (numbered,) = fresh.program(terms)
    fresh.reset(u_hat)
    return fresh.products(numbered)


def blocks(ev, u_hat, params):
    """(F^k's block or 0.0, the inverted blocks' sum or None, P's symbol) on
    u_hat, each block assembled from ev's PDE on its own: its linear symbol
    times u_hat, plus the masked transform of its direct product or the
    masked D_a of its divergence-form flux.  Nothing of ev's plan is read."""
    grid, mask = ev.grid, ev.mask

    def symbol(linear):
        out = np.zeros(mask.shape, dtype=complex)
        for c, mi in linear:
            out = out + c * ik_symbol(grid, mi[1:])
        return out

    def block(e):
        linear, nonlinear = _split_linear(_compile_terms(e, params))
        phi = (_divergence_flux(e, ev.dim) if nonlinear and all(n % 3 for n in grid.shape)
               else None)
        if phi is None:
            parts = [(mask, nonlinear)] if nonlinear else []
        else:
            parts = [(ik_symbol(grid, _unit(a)) * mask, _compile_terms(p, params))
                     for a, p in enumerate(phi) if not p.is_zero()]
        F = symbol(linear) * u_hat
        for weight, terms in parts:
            F = F + np.fft.rfftn(on_state(ev, terms, u_hat)) * weight
        return F

    div = ev.pde.div_form
    if div is not None:
        k = div.k_axis - 1
        P_u = JetExpr.jet("u", (0,) + _unit(k))
        through = block(div.F[k])
        inverted = [ik_symbol(grid, _unit(j)) * block(div.F[j])
                    for j in range(ev.dim) if j != k]
    else:
        P_u, N = _split_time_part(ev.pde)
        through, inverted = 0.0, [block(N)]
    rest = sum(inverted, 0.0) if inverted else None
    return through, rest, symbol(_split_linear(_compile_terms(P_u, params))[0])


def rhs_by_blocks(ev, u_hat, params):
    """rhs_hat assembled block by block, the inverted ones then through the
    pinned P^{-1}."""
    through, rest, P = blocks(ev, u_hat, params)
    if rest is None:
        return through
    with np.errstate(divide="ignore", invalid="ignore"):
        return through + rest * np.where(np.abs(P) < 1e-12, 0.0, 1.0 / P)


def white_field(shape, seed=11):
    rng = np.random.default_rng(seed)
    periods = tuple(TWO_PI * (1.0 + 0.25 * a) for a in range(len(shape)))
    return GridField(0.1 * rng.standard_normal(shape), periods)


class TestCompiledRhs:
    """rhs_hat = L v + sum_i W_i rfftn(terms_i(v)) against the block-by-block sum."""

    @pytest.mark.parametrize("n", [64, 65, 128])
    def test_kdv_is_bit_identical(self, n):
        field = white_field((n,))
        ev = KhatEvolver(get_entry("kdv_lagrangian").pde, field, {})
        u_hat = np.fft.rfftn(field.data) * ev.mask
        assert np.array_equal(ev.rhs_hat(u_hat, 0.0), rhs_by_blocks(ev, u_hat, {}))

    @pytest.mark.parametrize("name, shape", [
        ("kp", (32, 32)), ("kp", (32, 24)), ("umkp", (24, 33)), ("nv", (32, 32)),
        ("vorticity", (33, 32)), ("shear", (16, 18, 17)), ("shear", (16, 20, 16))])
    def test_matches_blocks(self, name, shape):
        entry = get_entry(name)
        field = white_field(shape)
        params = DIVERGENCE_PARAMS.get(name) or {
            p: 0.6 + 0.2 * i for i, p in enumerate(sorted(entry.symbols.params))}
        ev = KhatEvolver(entry.pde, field, params, mean_tol=np.inf)
        u_hat = np.fft.rfftn(field.data) * ev.mask
        got, want = ev.rhs_hat(u_hat, 0.0), rhs_by_blocks(ev, u_hat, params)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def guarded(self, mean_tol):
        """A KP evolver and a state with a small x-mean, with the peak of the
        inverted blocks on the zero set of P and over the whole spectrum."""
        n = 32
        x = np.arange(n) * TWO_PI / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        g = GridField(0.05 * np.sin(X + Y) + 1e-3 * np.cos(Y), (TWO_PI, TWO_PI))
        ev = KhatEvolver(get_entry("kp").pde, g, {"sigma": 1.0}, mean_tol=mean_tol)
        u_hat = np.fft.rfftn(g.data) * ev.mask
        _, rest, P = blocks(ev, u_hat, {"sigma": 1.0})
        peak = float(np.max(np.abs(rest[np.abs(P) < 1e-12])))
        return ev, u_hat, peak, float(np.max(np.abs(rest)))

    def test_guard_between_plane_and_scale(self, monkeypatch):
        _, _, peak, scale = self.guarded(np.inf)
        assert 1.0 < scale and peak < scale
        calls = []

        def counted(*args):
            calls.append(args[1].shape)
            return summed(*args)

        # the plane exceeds mean_tol, so max|rest| is built, but not by enough
        between, u_hat, _, _ = self.guarded(peak / math.sqrt(scale))
        # below mean_tol the plane alone decides
        below, _, _, _ = self.guarded(2.0 * peak)
        summed = evolution._summed
        monkeypatch.setattr(evolution, "_summed", counted)
        between.rhs_hat(u_hat, 0.0)
        assert len(calls) == 2 and calls[1] == u_hat.shape
        calls.clear()
        below.rhs_hat(u_hat, 0.0)
        assert len(calls) == 1 and calls[0] != u_hat.shape

    def test_guard_above_scaled_tolerance_raises(self):
        _, _, peak, scale = self.guarded(np.inf)
        ev, u_hat, _, _ = self.guarded(0.99 * peak / max(scale, 1.0))
        with pytest.raises(NonIntegrableSymbol, match="zero set of P"):
            ev.rhs_hat(u_hat, 0.0)


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
