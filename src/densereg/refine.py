"""Per-pair refinement of a control-grid field by projected descent.

The feed-forward estimate (expected displacement under the softmax
distribution) is polished by minimizing

    E(phi) = sum_k C_k(phi(k)) + weight * diffusion(phi)

where ``C_k`` is the trilinear interpolant of the regularized cost row of
control point ``k`` over continuous displacement coordinates, clamped to
the capture range box, and ``diffusion`` sums the squared spatial
gradients of all three components over the grid points (central
differences per normalized coordinate, one-sided at the borders).  Both
terms have closed-form gradients: the data term by differentiating the
trilinear weights, the diffusion term through the adjoint of the
finite-difference stencil.  Descent uses step halving:
a proposal that raises the energy is rejected and the step size halved, so
the energy trace is non-increasing by construction.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .correlation import CostTensor6D
from .geometry import DisplacementField, _is_int, lerp_plan

__all__ = ["RefineConfig", "refine_trace", "field_energy",
           "field_energy_grad", "gradient_adjoint"]


@dataclass(frozen=True)
class RefineConfig:
    """Descent settings: iteration count, initial step size (normalized
    units per unit gradient), and the weight of the diffusion term.  Both
    numbers must be finite."""

    steps: int = 50
    step_size: float = 0.05
    diffusion_weight: float = 1.5

    def __post_init__(self):
        if not (_is_int(self.steps) and self.steps >= 0):
            raise ValueError(f"steps must be an int >= 0, got {self.steps!r}")
        if not (np.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if not (np.isfinite(self.diffusion_weight) and self.diffusion_weight >= 0.0):
            raise ValueError(f"diffusion_weight must be finite and >= 0, "
                             f"got {self.diffusion_weight}")


def gradient_adjoint(y: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Adjoint of the central-difference stencil used by ``np.gradient``
    (one-sided at the borders), so that <G f, y> == <f, adjoint(y)>."""
    y = np.moveaxis(y, axis, 0)
    n = y.shape[0]
    out = np.zeros_like(y)
    if n < 2:
        raise ValueError("adjoint needs >= 2 samples along the axis")
    if n == 2:
        # Both outputs equal (f[1] - f[0]) / h.
        out[0] = -(y[0] + y[1]) / h
        out[1] = (y[0] + y[1]) / h
    else:
        out[0] -= y[0] / h
        out[1] += y[0] / h
        out[n - 2] -= y[n - 1] / h
        out[n - 1] += y[n - 1] / h
        out[2:] += y[1:n - 1] / (2.0 * h)
        out[:n - 2] -= y[1:n - 1] / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _data_energy_grad(cost: CostTensor6D, phi: np.ndarray):
    """Sum of interpolated cost rows and its gradient w.r.t. the field.

    ``phi`` must already be clamped to the capture-range box.  Corners and
    weights follow :func:`lerp_plan`'s border rule, so on an axis with a
    single displacement step the second corner has weight 0, and both
    corners have slope 0: the axis contributes no variation and zero
    gradient.
    """
    space, counts = cost.space, cost.counts
    corners = []
    for a in range(3):
        h = space.spacing(a)
        t = (phi[..., a] + space.q) / h if h else np.zeros(counts)
        plan = lerp_plan(space.steps[a], t.ravel(), 1, 0)
        i0, i1, w0, w1 = (x.reshape(counts) for x in plan)
        slope = 1.0 / h if h else 0.0
        # (index, weight, slope of the weight along phi) per corner.
        corners.append([(i0, w0, -slope), (i1, w1, slope)])
    kk = np.ogrid[:counts[0], :counts[1], :counts[2]]
    energy = 0.0
    grad = np.zeros(counts + (3,))
    for corner in product(*corners):
        idx, wt, slope = zip(*corner)
        value = cost.values[kk[0], kk[1], kk[2], idx[0], idx[1], idx[2]]
        energy += float(np.sum(wt[0] * wt[1] * wt[2] * value))
        for a in range(3):
            if slope[a]:
                others = wt[a - 1] * wt[a - 2]  # the two other axes
                grad[..., a] += slope[a] * others * value
    return energy, grad


def _diffusion_energy_grad(phi: np.ndarray, weight: float):
    """Diffusion term and gradient; zero on grids with a degenerate axis
    (a single point has no neighbors to differ from)."""
    counts = phi.shape[:3]
    if weight == 0.0 or any(c < 2 for c in counts):
        return 0.0, np.zeros_like(phi)
    spacings = [2.0 / c for c in counts]
    energy = 0.0
    grad = np.zeros_like(phi)
    for c in range(3):
        comp = phi[..., c]
        for a in range(3):
            g = np.gradient(comp, spacings[a], axis=a)
            energy += float(np.sum(g * g))
            grad[..., c] += 2.0 * gradient_adjoint(g, spacings[a], axis=a)
    return weight * energy, weight * grad


def field_energy(cost: CostTensor6D, phi: np.ndarray, weight: float) -> float:
    """Total refinement objective at a clamped field."""
    return field_energy_grad(cost, phi, weight)[0]


def field_energy_grad(cost: CostTensor6D, phi: np.ndarray, weight: float):
    """Objective and its analytic gradient at a clamped field."""
    e_data, g_data = _data_energy_grad(cost, phi)
    e_diff, g_diff = _diffusion_energy_grad(phi, weight)
    return e_data + e_diff, g_data + g_diff


def refine_trace(cost: CostTensor6D, init: DisplacementField, cfg: RefineConfig):
    """Refine and return ``(field, energies)`` where ``energies[i]`` is the
    objective after ``i`` iterations (rejected proposals repeat the
    previous value, so the sequence never increases).  ``steps=0``
    returns the clamped input.  A non-finite objective or gradient, at
    the start or at a trial, raises :class:`ArithmeticError`."""
    if init.counts != cost.counts:
        raise ValueError(f"init field grid {init.counts} does not match "
                         f"cost grid {cost.counts}")
    q, weight = cost.space.q, cfg.diffusion_weight
    phi = np.clip(init.vectors, -q, q)
    trial, step, energies = phi, cfg.step_size, []
    with np.errstate(over="ignore", invalid="ignore"):
        # The first pass evaluates the start, every later one a trial.
        for _ in range(cfg.steps + 1):
            e_trial, g_trial = field_energy_grad(cost, trial, weight)
            if not (np.isfinite(e_trial) and np.all(np.isfinite(g_trial))):
                raise ArithmeticError("refinement reached a non-finite energy")
            if not energies or e_trial <= energy:
                phi, energy, grad = trial, e_trial, g_trial
            else:
                step *= 0.5
            energies.append(energy)
            trial = np.clip(phi - step * grad, -q, q)
    return DisplacementField(phi), np.asarray(energies)
