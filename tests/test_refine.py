"""Gradient-descent field refinement on the interpolated cost tensor."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densereg.correlation import CostTensor6D
from densereg.geometry import DisplacementField, DisplacementSpace
from densereg.refine import (
    RefineConfig,
    field_energy,
    _diffusion_energy_grad,
    field_energy_grad,
    gradient_adjoint,
    refine_trace,
)
from oracles import (naive_frac_trilinear, offset_grid,
                     single_corner_energy_grad)


def bowl_cost(space, target, grid_counts=(1, 1, 1), sharpness=1.0):
    """Cost rows shaped ||d - target||^2: unique minimum at target."""
    offs = offset_grid(space)
    row = sharpness * np.sum((offs - np.asarray(target)) ** 2, axis=-1)
    vals = np.broadcast_to(row, tuple(grid_counts) + offs.shape[:-1]).copy()
    return CostTensor6D(vals, space)


class TestConfig:
    def test_defaults(self):
        cfg = RefineConfig()
        assert cfg.steps == 50
        assert cfg.step_size == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(steps=-1)
        with pytest.raises(ValueError):
            RefineConfig(step_size=0.0)
        with pytest.raises(ValueError):
            RefineConfig(diffusion_weight=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"steps": 2.5}, {"steps": True}, {"step_size": np.inf},
        {"step_size": np.nan}, {"diffusion_weight": np.inf},
        {"diffusion_weight": np.nan}])
    def test_fractional_steps_and_non_finite_numbers_rejected(self, kwargs):
        # Caught at construction, not as a TypeError or IndexError inside
        # refine_trace.
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            RefineConfig(**kwargs)

    def test_overflowing_start_is_a_numerical_failure(self):
        # A weight near the float range overflows the diffusion energy of
        # any non-constant start field: an ArithmeticError, and no numpy
        # warning (the suite turns one into an error).
        space = DisplacementSpace(0.4, 5)
        cost = bowl_cost(space, (0.0, 0.0, 0.0), (3, 3, 3))
        init = DisplacementField(np.random.default_rng(5).uniform(
            -0.3, 0.3, size=(3, 3, 3, 3)))
        with pytest.raises(ArithmeticError, match="non-finite"):
            refine_trace(cost, init, RefineConfig(diffusion_weight=1e308))

    def test_overflowing_trial_is_a_numerical_failure(self):
        # A nearly constant start keeps the weighted diffusion energy
        # finite; the first trial jumps to the box faces and overflows it.
        # That is a numerical failure too, not a rejected step.
        space = DisplacementSpace(0.4, 5)
        cost = bowl_cost(space, (0.0, 0.0, 0.0), (3, 3, 3))
        init = DisplacementField(np.random.default_rng(5).uniform(
            -1e-3, 1e-3, size=(3, 3, 3, 3)))
        assert np.isfinite(field_energy(cost, init.vectors, 1e308))
        with pytest.raises(ArithmeticError, match="non-finite"):
            refine_trace(cost, init, RefineConfig(diffusion_weight=1e308))


class TestGradientAdjoint:
    def test_dot_product_identity(self):
        # <G f, y> == <f, G^T y> for the np.gradient stencil.
        rng = np.random.default_rng(101)
        for n in (2, 3, 4, 7):
            f = rng.normal(size=(n, 5))
            y = rng.normal(size=(n, 5))
            h = 0.37
            gf = np.gradient(f, h, axis=0)
            lhs = float(np.sum(gf * y))
            rhs = float(np.sum(f * gradient_adjoint(y, h, axis=0)))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_other_axes(self):
        rng = np.random.default_rng(102)
        f = rng.normal(size=(4, 5, 6))
        y = rng.normal(size=(4, 5, 6))
        for axis in range(3):
            gf = np.gradient(f, 0.5, axis=axis)
            lhs = float(np.sum(gf * y))
            rhs = float(np.sum(f * gradient_adjoint(y, 0.5, axis=axis)))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestAnalyticGradient:
    def check_fd(self, cost, phi, weight, h=1e-4, tol=1e-3):
        _, grad = field_energy_grad(cost, phi, weight)
        fd = np.zeros_like(grad)
        it = np.nditer(phi, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            up = phi.copy()
            dn = phi.copy()
            up[idx] += h
            dn[idx] -= h
            fd[idx] = (field_energy(cost, up, weight)
                       - field_energy(cost, dn, weight)) / (2 * h)
        scale = max(np.abs(fd).max(), 1e-8)
        assert np.abs(grad - fd).max() / scale < tol

    def interior_phi(self, rng, space, shape):
        # Fractional positions well inside displacement bins so finite
        # differences do not straddle an interpolation kink.
        phi = np.empty(shape + (3,))
        for a in range(3):
            s = space.steps[a]
            h = space.spacing(a)
            i0 = rng.integers(0, s - 1, size=shape)
            t = rng.uniform(0.1, 0.9, size=shape)
            phi[..., a] = -space.q + h * (i0 + t)
        return phi

    def test_single_point(self):
        rng = np.random.default_rng(103)
        space = DisplacementSpace(0.4, (7, 7, 7))
        for _ in range(5):
            vals = rng.uniform(0.0, 1.0, size=(1, 1, 1, 7, 7, 7))
            cost = CostTensor6D(vals, space)
            phi = self.interior_phi(rng, space, (1, 1, 1))
            self.check_fd(cost, phi, weight=0.0)

    def test_coupled_grid(self):
        rng = np.random.default_rng(104)
        space = DisplacementSpace(0.4, (5, 5, 5))
        for _ in range(3):
            vals = rng.uniform(0.0, 1.0, size=(4, 4, 4, 5, 5, 5))
            cost = CostTensor6D(vals, space)
            phi = self.interior_phi(rng, space, (4, 4, 4))
            self.check_fd(cost, phi, weight=1.5)


class TestDataTerm:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           counts=st.tuples(*[st.integers(1, 3)] * 3),
           steps=st.tuples(*[st.sampled_from((1, 3, 5))] * 3),
           q=st.floats(0.05, 0.95), on_face=st.floats(0.0, 1.0))
    def test_energy_is_the_trilinear_sum(self, seed, counts, steps, q,
                                         on_face):
        # Some components sit exactly on the +-q faces of the box.
        rng = np.random.default_rng(seed)
        space = DisplacementSpace(q, steps)
        vals = rng.uniform(0.0, 1.0, size=counts + steps)
        cost = CostTensor6D(vals, space)
        phi = rng.uniform(-q, q, size=counts + (3,))
        face = rng.uniform(size=phi.shape) < on_face
        phi[face] = rng.choice((-q, q), size=int(face.sum()))
        energy, grad = field_energy_grad(cost, phi, 0.0)
        want = 0.0
        for k in np.ndindex(counts):
            frac = [(phi[k][a] + q) / space.spacing(a) if steps[a] > 1
                    else 0.0 for a in range(3)]
            want += naive_frac_trilinear(vals[k], frac)
        assert energy == pytest.approx(want, rel=1e-12, abs=1e-12)
        for a in range(3):
            if steps[a] == 1:
                assert np.all(grad[..., a] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           counts=st.tuples(*[st.integers(1, 3)] * 3),
           steps=st.tuples(*[st.sampled_from((1, 3, 5))] * 3).filter(
               lambda steps: 1 in steps),
           q=st.floats(0.05, 0.95), on_face=st.floats(0.0, 1.0),
           weight=st.sampled_from((0.0, 1.5)))
    def test_single_step_axes_as_the_single_corner(self, seed, counts, steps,
                                                   q, on_face, weight):
        rng = np.random.default_rng(seed)
        cost = CostTensor6D(rng.uniform(0.0, 1.0, size=counts + steps),
                            DisplacementSpace(q, steps))
        phi = rng.uniform(-q, q, size=counts + (3,))
        face = rng.uniform(size=phi.shape) < on_face
        phi[face] = rng.choice((-q, q), size=int(face.sum()))
        energy, grad = field_energy_grad(cost, phi, weight)
        e_data, g_data = single_corner_energy_grad(cost, phi)
        e_diff, g_diff = _diffusion_energy_grad(phi, weight)
        assert np.float64(energy).tobytes() == \
            np.float64(e_data + e_diff).tobytes()
        assert grad.tobytes() == (g_data + g_diff).tobytes()


class TestRefine:
    def test_zero_steps_returns_init(self):
        rng = np.random.default_rng(105)
        space = DisplacementSpace(0.4, (5, 5, 5))
        vals = rng.uniform(0.0, 1.0, size=(2, 2, 2, 5, 5, 5))
        cost = CostTensor6D(vals, space)
        init = DisplacementField(rng.uniform(-0.3, 0.3, size=(2, 2, 2, 3)))
        out, _ = refine_trace(cost, init, RefineConfig(steps=0))
        assert np.array_equal(out.vectors, init.vectors)

    def test_single_point_converges_to_minimum(self):
        space = DisplacementSpace(0.4, (7, 7, 7))
        target = np.array([0.4 / 3, -0.4 / 3, 0.0])
        cost = bowl_cost(space, target)
        init = DisplacementField((target + 0.1).reshape(1, 1, 1, 3))
        cfg = RefineConfig(steps=100, step_size=0.05, diffusion_weight=0.0)
        out, _ = refine_trace(cost, init, cfg)
        err = np.abs(out.vectors[0, 0, 0] - target)
        assert err.max() <= space.spacing(0)

    # Fields may start outside the box; refinement clamps them first.
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           counts=st.tuples(*[st.integers(1, 3)] * 3),
           steps=st.tuples(*[st.sampled_from((1, 3, 5))] * 3),
           q=st.floats(0.05, 1.0), weight=st.floats(0.0, 20.0),
           step_size=st.floats(1e-4, 2.0), spread=st.floats(0.0, 1.5))
    @example(seed=106, counts=(3, 3, 3), steps=(5, 5, 5), q=0.4, weight=1.5,
             step_size=0.05, spread=0.35)
    def test_energy_monotone_nonincreasing(self, seed, counts, steps, q,
                                           weight, step_size, spread):
        rng = np.random.default_rng(seed)
        space = DisplacementSpace(q, steps)
        vals = rng.uniform(0.0, 1.0, size=counts + steps)
        cost = CostTensor6D(vals, space)
        init = DisplacementField(rng.uniform(-spread, spread,
                                             size=counts + (3,)))
        cfg = RefineConfig(steps=40, step_size=step_size,
                           diffusion_weight=weight)
        out, energies = refine_trace(cost, init, cfg)
        assert len(energies) == 41
        assert np.all(np.diff(energies) <= 0.0)
        assert np.all(np.abs(out.vectors) <= q)
        assert energies[-1] == field_energy(cost, out.vectors, weight)

    def test_output_respects_capture_range(self):
        # Costs that keep decreasing toward the box edge: the minimizer
        # would leave the box, projection keeps it inside.
        space = DisplacementSpace(0.4, (5, 5, 5))
        offs = offset_grid(space)
        vals = np.broadcast_to(-offs[..., 0] + 0.4, (1, 1, 1, 5, 5, 5)).copy()
        cost = CostTensor6D(vals, space)
        init = DisplacementField(np.zeros((1, 1, 1, 3)))
        out, _ = refine_trace(cost, init, RefineConfig(steps=60, diffusion_weight=0.0))
        assert np.all(np.abs(out.vectors) <= 0.4 + 1e-12)
        assert out.vectors[0, 0, 0, 0] == pytest.approx(0.4, abs=1e-6)

    def test_already_optimal_field_unchanged(self):
        space = DisplacementSpace(0.4, (7, 7, 7))
        target = offset_grid(space)[5, 3, 2]
        cost = bowl_cost(space, target)
        init = DisplacementField(target.reshape(1, 1, 1, 3).copy())
        out, _ = refine_trace(cost, init, RefineConfig(steps=50, diffusion_weight=0.0))
        assert np.abs(out.vectors - init.vectors).max() < 1e-6

    def test_diffusion_dominated_smoothing(self):
        # With a huge diffusion weight the data term is negligible and the
        # descent flows toward smoother fields at every accepted step.
        rng = np.random.default_rng(107)
        space = DisplacementSpace(0.4, (3, 3, 3))
        vals = rng.uniform(0.0, 1e-4, size=(4, 4, 4, 3, 3, 3))
        cost = CostTensor6D(vals, space)
        init_vec = rng.uniform(-0.3, 0.3, size=(4, 4, 4, 3))
        weight = 1e4

        def roughness(v):
            return field_energy(cost, v, weight)

        prev = None
        for steps in range(0, 12, 2):
            out, _ = refine_trace(cost, DisplacementField(init_vec),
                                  RefineConfig(steps=steps, step_size=1e-6,
                                               diffusion_weight=weight))
            r = roughness(out.vectors)
            if prev is not None:
                assert r <= prev + 1e-9
            prev = r

    def test_grid_mismatch_rejected(self):
        space = DisplacementSpace(0.4, (3, 3, 3))
        cost = CostTensor6D(np.zeros((2, 2, 2, 3, 3, 3)), space)
        init = DisplacementField(np.zeros((3, 3, 3, 3)))
        with pytest.raises(ValueError):
            refine_trace(cost, init, RefineConfig())
