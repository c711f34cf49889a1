"""Finite-difference solvers for the generator eps * d_xx - V' * d_x on an
interval, with reflecting (zero-flux) behavior at the artificial outer
boundaries and Dirichlet rows on the target sets.

Provides the mean hitting time (source problem), the committor (harmonic
interpolation between the sets), the capacity via the Dirichlet form of the
solved committor, and a numerical check of the identity linking the mean
hitting time to the committor-weighted Gibbs integral over the capacity.

scipy.linalg is imported at the first banded solve, not with the module: it
takes most of the package's import time, and only these solves use it.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import OverlappingSets, SingularSystem
from .potentials import Potential

Interval = tuple[float, float]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [a, b] with m interior nodes, spacing h = (b-a)/(m+1)."""

    a: float
    b: float
    m: int

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("need at least 3 interior nodes")
        if self.b <= self.a:
            raise ValueError("empty interval")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.m + 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.m + 2)

    def refined(self) -> "Grid1D":
        """Grid with exactly halved spacing (coarse nodes are kept)."""
        return Grid1D(self.a, self.b, 2 * self.m + 1)


@dataclass(frozen=True)
class CommittorSolution:
    grid: Grid1D
    h_values: np.ndarray
    A_set: tuple[Interval, ...]
    B_set: tuple[Interval, ...]


def _normalize_sets(sets) -> tuple[Interval, ...]:
    if isinstance(sets, tuple) and len(sets) == 2 and np.isscalar(sets[0]):
        sets = [sets]
    return tuple((float(lo), float(hi)) for lo, hi in sets)


def set_mask(grid: Grid1D, sets) -> np.ndarray:
    """Boolean mask of nodes lying in the union of closed intervals."""
    x = grid.nodes
    tol = 1e-12 * max(1.0, abs(grid.b - grid.a))
    mask = np.zeros(x.size, dtype=bool)
    for lo, hi in _normalize_sets(sets):
        mask |= (x >= lo - tol) & (x <= hi + tol)
    return mask


def _assemble(grid: Grid1D, V: Potential, eps: float,
              dirichlet: np.ndarray, rhs_interior: float) -> tuple[np.ndarray, np.ndarray]:
    """Banded rows of the discrete generator with Dirichlet overrides.

    Interior: eps (w_{i+1} - 2 w_i + w_{i-1})/h^2 - V'_i (w_{i+1} - w_{i-1})/(2h).
    Outer boundary nodes not in a Dirichlet set get the ghost-node reflecting
    row 2 eps (w_inner - w_0)/h^2 (the drift term cancels under reflection).
    """
    x = grid.nodes
    n = x.size
    h = grid.h
    vprime = V.gradient_batch(x[:, None])[:, 0]

    ab = np.zeros((3, n))  # solve_banded layout: [upper, diag, lower]
    rhs = np.full(n, rhs_interior, dtype=float)

    diag = np.full(n, -2 * eps / h**2)
    upper = eps / h**2 - vprime / (2 * h)
    lower = eps / h**2 + vprime / (2 * h)

    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]

    if not dirichlet[0]:
        ab[1, 0] = -2 * eps / h**2
        ab[0, 1] = 2 * eps / h**2
    if not dirichlet[-1]:
        ab[1, -1] = -2 * eps / h**2
        ab[2, -2] = 2 * eps / h**2

    idx = np.flatnonzero(dirichlet)
    ab[1, idx] = 1.0
    ab[0, idx[idx + 1 < n] + 1] = 0.0
    ab[2, idx[idx >= 1] - 1] = 0.0
    rhs[idx] = 0.0
    return ab, rhs


def _solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    from scipy.linalg import solve_banded

    try:
        sol = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("banded solve produced non-finite values")
    return sol


def solve_poisson(grid: Grid1D, V: Potential, eps: float, B_set) -> np.ndarray:
    """Mean time to reach B: generator w = -1 off B, w = 0 on B, O(h^2)."""
    b_mask = set_mask(grid, B_set)
    if not b_mask.any():
        raise ValueError("B_set selects no grid nodes")
    ab, rhs = _assemble(grid, V, eps, b_mask, rhs_interior=-1.0)
    w = _solve(ab, rhs)
    w[b_mask] = 0.0
    return w


def solve_committor(grid: Grid1D, V: Potential, eps: float,
                    A_set, B_set) -> CommittorSolution:
    """Probability of reaching A before B: harmonic between 1 on A, 0 on B."""
    a_mask = set_mask(grid, A_set)
    b_mask = set_mask(grid, B_set)
    if not a_mask.any() or not b_mask.any():
        raise ValueError("A_set and B_set must each contain grid nodes")
    if np.any(a_mask & b_mask):
        raise OverlappingSets("A and B overlap on the grid")
    dirichlet = a_mask | b_mask
    ab, rhs = _assemble(grid, V, eps, dirichlet, rhs_interior=0.0)
    rhs[a_mask] = 1.0
    h_values = _solve(ab, rhs)
    h_values[a_mask] = 1.0
    h_values[b_mask] = 0.0
    return CommittorSolution(grid=grid, h_values=h_values,
                             A_set=_normalize_sets(A_set),
                             B_set=_normalize_sets(B_set))


def capacity_dirichlet(grid: Grid1D, V: Potential, eps: float,
                       committor: CommittorSolution, v_ref: float = 0.0) -> float:
    """Dirichlet-form energy of the committor:
    eps * sum_cells exp(-(V - v_ref)/eps) (dh/dx)^2 dx, trapezoidal weights.

    v_ref shifts the Gibbs weight; callers comparing against the hitting-time
    identity must absorb the same shift in the companion integral.
    """
    h = grid.h
    e = np.exp(-(V.value(grid.nodes[:, None]) - v_ref) / eps)
    w_cell = 0.5 * (e[:-1] + e[1:])
    slope = np.diff(committor.h_values) / h
    return float(eps * np.sum(w_cell * slope**2) * h)


def committor_weighted_integral(grid: Grid1D, V: Potential, eps: float,
                                committor: CommittorSolution,
                                v_ref: float = 0.0) -> float:
    """Trapezoidal integral of exp(-(V - v_ref)/eps) * h over the grid.

    The committor vanishes on B, so this is the integral over the complement
    of B; for small eps it concentrates at the starting minimum and matches
    the Gaussian (Laplace) approximation of the Gibbs weight there.
    """
    x = grid.nodes
    vals = np.exp(-(V.value(x[:, None]) - v_ref) / eps)
    return float(np.trapezoid(vals * committor.h_values, x))


def magic_identity_residual(grid: Grid1D, V: Potential, eps: float,
                            A_set, B_set) -> float:
    """Relative gap between the two routes to the mean transition time.

    Left: the solved mean hitting time of B evaluated at the minimum of V
    inside A (the boundary measure concentrates there).  Right: the
    committor-weighted Gibbs integral divided by the capacity.  Both sides
    share one Gibbs-weight normalization so the result is shift-invariant.
    """
    a_mask = set_mask(grid, A_set)
    if not a_mask.any():
        raise ValueError("A_set selects no grid nodes")
    w = solve_poisson(grid, V, eps, B_set)
    comm = solve_committor(grid, V, eps, A_set, B_set)

    v_all = V.value(grid.nodes[:, None])
    v_ref = float(np.min(v_all))
    cap = capacity_dirichlet(grid, V, eps, comm, v_ref=v_ref)
    rhs = committor_weighted_integral(grid, V, eps, comm, v_ref=v_ref) / cap

    a_idx = np.flatnonzero(a_mask)
    x_star = a_idx[np.argmin(v_all[a_idx])]
    lhs = w[x_star]
    if abs(lhs) < 1e-300 and abs(rhs) < 1e-300:
        return 0.0
    return float(abs(lhs - rhs) / abs(rhs))
