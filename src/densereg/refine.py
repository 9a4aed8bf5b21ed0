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
from .geometry import DisplacementField

__all__ = ["RefineConfig", "refine_trace", "field_energy",
           "field_energy_grad", "gradient_adjoint"]


@dataclass(frozen=True)
class RefineConfig:
    """Descent settings: iteration count, initial step size (normalized
    units per unit gradient), and the diffusion weight shared with the
    registration config."""

    steps: int = 50
    step_size: float = 0.05
    diffusion_weight: float = 1.5

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not self.step_size > 0.0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if self.diffusion_weight < 0.0:
            raise ValueError(f"diffusion_weight must be >= 0, got {self.diffusion_weight}")


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


def _data_energy_grad(cost: CostTensor6D, phi: np.ndarray, need_grad: bool = True):
    """Sum of interpolated cost rows and its gradient w.r.t. the field.

    ``phi`` must already be clamped to the capture-range box.  Axes with a
    single displacement step contribute no variation and zero gradient.
    """
    space = cost.space
    steps = space.steps
    k1, k2, k3 = cost.grid.counts
    i0, w, inv_h, active = [], [], [], []
    for a in range(3):
        s = steps[a]
        if s == 1:
            i0.append(np.zeros((k1, k2, k3), dtype=np.intp))
            w.append(np.zeros((k1, k2, k3)))
            inv_h.append(0.0)
            active.append(False)
            continue
        h = space.spacing(a)
        u = (phi[..., a] + space.q) / h
        lo = np.minimum(u.astype(np.intp), s - 2)
        i0.append(lo)
        w.append(u - lo)
        inv_h.append(1.0 / h)
        active.append(True)
    kk = np.ogrid[:k1, :k2, :k3]
    energy = 0.0
    grad = np.zeros((k1, k2, k3, 3)) if need_grad else None
    for b in product((0, 1), repeat=3):
        idx = tuple(np.minimum(i0[a] + b[a], steps[a] - 1) for a in range(3))
        corner = cost.values[kk[0], kk[1], kk[2], idx[0], idx[1], idx[2]]
        wt = [(w[a] if b[a] else 1.0 - w[a]) for a in range(3)]
        energy += float(np.sum(wt[0] * wt[1] * wt[2] * corner))
        if grad is None:
            continue
        for a in range(3):
            if not active[a]:
                continue
            others = 1.0
            for o in range(3):
                if o != a:
                    others = others * wt[o]
            sign = 1.0 if b[a] else -1.0
            grad[..., a] += sign * inv_h[a] * others * corner
    return energy, grad


def _diffusion_energy_grad(phi: np.ndarray, weight: float, need_grad: bool = True):
    """Diffusion term and gradient; zero on grids with a degenerate axis
    (a single point has no neighbors to differ from)."""
    counts = phi.shape[:3]
    if weight == 0.0 or any(c < 2 for c in counts):
        return 0.0, (np.zeros_like(phi) if need_grad else None)
    spacings = [2.0 / c for c in counts]
    energy = 0.0
    grad = np.zeros_like(phi) if need_grad else None
    for c in range(3):
        comp = phi[..., c]
        for a in range(3):
            g = np.gradient(comp, spacings[a], axis=a)
            energy += float(np.sum(g * g))
            if grad is not None:
                grad[..., c] += 2.0 * gradient_adjoint(g, spacings[a], axis=a)
    return weight * energy, (weight * grad if grad is not None else None)


def field_energy(cost: CostTensor6D, phi: np.ndarray, weight: float) -> float:
    """Total refinement objective at a clamped field."""
    e_data, _ = _data_energy_grad(cost, phi, need_grad=False)
    e_diff, _ = _diffusion_energy_grad(phi, weight, need_grad=False)
    return e_data + e_diff


def field_energy_grad(cost: CostTensor6D, phi: np.ndarray, weight: float):
    """Objective and its analytic gradient at a clamped field."""
    e_data, g_data = _data_energy_grad(cost, phi)
    e_diff, g_diff = _diffusion_energy_grad(phi, weight)
    return e_data + e_diff, g_data + g_diff


def refine_trace(cost: CostTensor6D, init: DisplacementField, cfg: RefineConfig):
    """Refine and return ``(field, energies)`` where ``energies[i]`` is the
    objective after ``i`` iterations (rejected proposals repeat the
    previous value, so the sequence never increases).  ``steps=0``
    returns the clamped input."""
    if init.counts != cost.grid.counts:
        raise ValueError(f"init field grid {init.counts} does not match "
                         f"cost grid {cost.grid.counts}")
    q = cost.space.q
    phi = np.clip(init.vectors, -q, q)
    energy, grad = field_energy_grad(cost, phi, cfg.diffusion_weight)
    energies = [energy]
    step = cfg.step_size
    for _ in range(cfg.steps):
        trial = np.clip(phi - step * grad, -q, q)
        e_trial = field_energy(cost, trial, cfg.diffusion_weight)
        if e_trial <= energy:
            phi = trial
            energy, grad = field_energy_grad(cost, phi, cfg.diffusion_weight)
        else:
            step *= 0.5
        energies.append(energy)
    return DisplacementField(phi), np.asarray(energies)
