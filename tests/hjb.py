"""A policy-iteration oracle for the dividend problems' Hamilton-Jacobi-Bellman equation.

It assumes no barrier: at every node of a grid in y = log(r / alpha0) it
picks the best of continuing, paying down one node and injecting up one
node, by Howard's policy iteration (Forsyth & Labahn, J. Comput. Finance
11(2), 2007; Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47(4), 2009).
With V = x2 v(r), continuing solves

    (s/2) v'' + (mu_A - mu_L - s/2) v' - (delta - mu_L) v = 0,   s = sigma~^2,

in y, by central differences; paying one node down reads
v_i = v_(i-1) + (r_i - r_(i-1)), injecting one node up
v_i = v_(i+1) - kappa (r_(i+1) - r_i).  The floor node is ruined (v = 0) or,
with injections allowed, may instead reflect at cost kappa: v' = kappa alpha0
in y, through a ghost node that keeps the row second order.  The top node pays.
A solvency floor alpha1 forbids paying at nodes below it.  Every row is
tridiagonal, so each policy is solved in O(n) by the Thomas algorithm.

It reads the raw parameters only, none of the closed forms under test.
"""

from __future__ import annotations

import math

import numpy as np

CONTINUE, PAY, INJECT, RUIN = range(4)


def _thomas(lower, diag, upper, rhs):
    """Solve the tridiagonal system with sub-diagonal ``lower`` (lower[0] unused),
    diagonal ``diag`` and super-diagonal ``upper`` (upper[-1] unused)."""
    n = len(diag)
    c, d = [0.0] * n, [0.0] * n
    c[0], d[0] = upper[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, n):
        m = diag[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / m
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / m
    x = [0.0] * n
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return np.array(x)


def hjb_oracle(p, top: float, n: int, *, alpha1: float | None = None,
               kappa: float | None = None):
    """Howard policy iteration on n steps of y in [0, log(top / alpha0)].

    Returns the ratios r, the values v(r) and the policy per node.  With
    ``kappa`` the floor may inject and every node above it may inject one
    node up; with ``alpha1`` nodes below alpha1 may not pay.
    """
    s = p.sigma_A**2 + p.sigma_L**2 - 2.0 * p.rho * p.sigma_A * p.sigma_L
    a, b, c = 0.5 * s, p.mu_A - p.mu_L - 0.5 * s, p.delta - p.mu_L
    h = math.log(top / p.alpha0) / n
    if abs(b) * h > 2.0 * a:
        raise ValueError(f"the central scheme is not monotone at h = {h:.3g}; raise n")
    r = p.alpha0 * np.exp(h * np.arange(n + 1))
    dr = np.diff(r)  # dr[i - 1] = r_i - r_(i-1)
    # Each control's row as (lower, diag, upper, rhs), the diagonal scaled to one so that
    # every residual is in units of v: row . v - rhs >= 0, and = 0 where the control acts.
    d = 2 * a / h**2 + c
    rows = np.zeros((4, 4, n + 1))
    rows[CONTINUE] = np.c_[[-(a / h**2 - b / (2 * h)) / d, 1.0, -(a / h**2 + b / (2 * h)) / d, 0.0]]
    rows[PAY, :3] = np.c_[[-1.0, 1.0, 0.0]]
    rows[PAY, 3, 1:] = dr
    rows[INJECT, :3] = np.c_[[0.0, 1.0, -1.0]]
    if kappa is not None:
        rows[INJECT, 3, :-1] = -kappa * dr
        # The floor reflects: its continuing row with the ghost node v_(-1) = v_1 - 2 h kappa alpha0.
        rows[INJECT, :, 0] = [0.0, 1.0, -2 * a / h**2 / d, kappa * p.alpha0 * (b - 2 * a / h) / d]
    rows[RUIN, :, 0] = [0.0, 1.0, 0.0, 0.0]
    allowed = np.zeros((4, n + 1), dtype=bool)
    allowed[CONTINUE, 1:-1] = True
    allowed[PAY, 1:] = True if alpha1 is None else r[1:] >= alpha1
    allowed[PAY, -1] = True
    allowed[INJECT, :-1] = kappa is not None
    allowed[RUIN, 0] = True
    policy = np.where(allowed[CONTINUE], CONTINUE, np.where(allowed[RUIN], RUIN, PAY))
    nodes = np.arange(n + 1)
    for _ in range(100):
        v = _thomas(*rows[policy, :, nodes].T.tolist())
        left, right = np.r_[0.0, v[:-1]], np.r_[v[1:], 0.0]
        residual = rows[:, 0] * left + rows[:, 1] * v + rows[:, 2] * right - rows[:, 3]
        residual[~allowed] = np.inf
        best = residual.argmin(axis=0)
        better = residual[best, nodes] < residual[policy, nodes] - 1e-12 * (1.0 + np.abs(v))
        if not better.any():
            return r, v, policy
        policy = np.where(better, best, policy)
    raise RuntimeError("policy iteration did not settle in 100 iterations")


def oracle_barrier(r, policy) -> float:
    """The ratio of the lowest paying node."""
    return float(r[np.flatnonzero(policy == PAY)[0]])
