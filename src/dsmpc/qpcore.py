"""Dense strictly-convex QP engine:

    min_z  0.5 z' P z + q' z   s.t.   A z <= r,      P positive definite.

P = L L' and V = L^-1 A' are computed once.  One method solves every
instance: the Goldfarb-Idnani dual active-set method (Math. Prog. 27, 1983)
on the cached factor, which solves only the Schur systems of the active rows
and forms no KKT matrix.  A solve tries, in order, the unconstrained
minimizer; the affine law of the caller's warm active set a, on which
(z, w) = M_a (q, r_a) (the law of explicit MPC; the law of the last warm set
is kept); the active-set polish from the warm set; and Goldfarb-Idnani from
the empty set.  A solution is accepted only when its KKT residual
(stationarity, feasibility, sign, complementarity) is below TOL, so the
certificate is independent of the path.  Emptiness of the constraint set is
certified with a feasibility LP before Infeasible is raised."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs, dpstrf, dtrtrs
from scipy.optimize import linprog

from .errors import Infeasible, MaxIters

TOL = 1e-9              # KKT residual accepted as a solution
FEAS_TOL = 1e-8         # primal slack still counted as feasible
POLISH_ROUNDS = 40      # active-set refinements from a warm set
PIVOT_TOL = 1e-10       # relative Schur pivot below which a row is dependent


@dataclass
class QPResult:
    z: np.ndarray
    nu: np.ndarray
    active: tuple
    kkt_residual: float
    iters: int          # Goldfarb-Idnani rounds of a cold start, else 0


def _cho_solve(U, b):
    """Solve U'U x = b for an upper Cholesky factor U, including 0 x 0."""
    return dpotrs(U, b)[0] if b.size else b


class DenseQP:
    """Factorized problem structure (P, A); q and r vary per solve."""

    def __init__(self, P, A):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        self.P = 0.5 * (P + P.T)
        try:
            self.chol = np.asfortranarray(np.linalg.cholesky(self.P))
        except np.linalg.LinAlgError as exc:
            raise ValueError("QP Hessian is not positive definite") from exc
        self.A = np.asarray(A, dtype=float).reshape(-1, P.shape[0])
        self.n = P.shape[0]
        self.k = self.A.shape[0]
        self.V = dtrtrs(self.chol, self.A.T, lower=1)[0]  # L^-1 A'
        self.law = None  # (sorted warm set, its _independent rows, M)

    def kkt_residual(self, z, nu, q, r):
        res = np.abs(self.P @ z + q + self.A.T @ nu).max()
        if self.k:
            slack = r - self.A @ z
            res = max(res, -slack.min(), -nu.min(), np.abs(nu * slack).max())
        return float(res)

    def _certify_infeasible(self, r):
        res = linprog(
            c=np.zeros(self.n),
            A_ub=self.A,
            b_ub=r,
            bounds=[(None, None)] * self.n,
            method="highs",
        )
        return res.status == 2

    def _independent(self, active):
        """The rows of `active` left after a pivoted Cholesky of
        S = V_a' V_a drops those dependent on the others, their columns V_a
        and the upper factor U of their S."""
        Va = self.V[:, active]
        S = Va.T @ Va
        U, piv, rank, _ = dpstrf(S, tol=PIVOT_TOL * S.diagonal().max(initial=0.0))
        keep = piv[:rank] - 1
        return [active[i] for i in keep], Va[:, keep], U[:rank, :rank]

    def _accept(self, q, r, z, rows, w, iters):
        nu = np.zeros(self.k)
        nu[rows] = w
        res = self.kkt_residual(z, nu, q, r)
        active = tuple(np.flatnonzero(nu > 0.0).tolist())
        return QPResult(z, nu, active, res, iters) if res <= TOL else None

    def _law(self, key):
        """(indep, M) for the active set `key`: indep = (rows, V_rows, U) are
        its independent rows, and (z, w) = M (q, r_rows) with
        w = -S^-1 (r_a + V_a' L^-1 q) and z = -P^-1 q - L^-T V_a w.  Built from
        the key alone, so a law is the same whether it was kept or is rebuilt."""
        if self.law is None or self.law[0] != key:
            rows, Va, U = indep = self._independent(list(key))
            Y = dtrtrs(self.chol, Va, lower=1, trans=1)[0]  # L^-T V_a
            W = -_cho_solve(U, np.hstack([Y.T, np.eye(len(rows))]))
            Z = -Y @ W
            Z[:, :self.n] -= dpotrs(self.chol, np.eye(self.n), lower=1)[0]
            self.law = (key, indep, np.vstack([Z, W]))
        return self.law[1:]

    def _polish(self, q, r, start, rounds):
        """Active-set solve on the factor from `start`, the _independent
        result of the first set: (V_a' V_a) w = -(r_a + V_a' L^-1 q),
        z = -L^-T (L^-1 q + V_a w), rows dependent on the others dropped.  The
        most negative multiplier goes until the set is dual feasible; the
        most violated row p then enters by Goldfarb-Idnani steps, raising its
        multiplier t and dropping the row whose multiplier reaches zero
        first.  Returns a certified QPResult, with the rounds it took, or
        None."""
        y = dtrtrs(self.chol, q, lower=1)[0]
        p, t = -1, 0.0
        active, Va, U = list(start[0]), start[1], start[2]
        for it in range(1, rounds + 1):
            if it > 1:
                active, Va, U = self._independent(active)
            rank = len(active)
            yt = y if p < 0 else y + t * self.V[:, p]
            w = np.zeros(rank)
            for _ in range(2):  # solve, then one refinement step
                w -= _cho_solve(U, r[active] + Va.T @ (yt + Va @ w))
            z = -dtrtrs(self.chol, yt + Va @ w, lower=1, trans=1)[0]
            if p < 0:
                if rank and w.min() < 0.0:
                    del active[int(np.argmin(w))]
                    continue
                slack = r - self.A @ z
                p = int(np.argmin(slack))
                if slack[p] >= -0.1 * TOL:
                    return self._accept(q, r, z, active, w, it)
            # Raising t by s moves w by -s rho and the slack of row p by s pivot.
            vp = self.V[:, p]
            rho = _cho_solve(U, Va.T @ vp)
            pivot = vp @ vp - (Va.T @ vp) @ rho
            full = np.inf if pivot <= PIVOT_TOL * (vp @ vp) else \
                (self.A[p] @ z - r[p]) / pivot
            ratio = np.append(np.divide(np.maximum(w, 0.0), rho, where=rho > 0.0,
                                        out=np.full(rank, np.inf)), np.inf)
            j = int(np.argmin(ratio))
            if ratio[j] < full:
                t += ratio[j]
                del active[j]
            elif full < np.inf:
                active.append(p)
                p, t = -1, 0.0
            else:
                return None  # no step meets row p: the set may be empty
        return None

    def solve(self, q, r, warm_active=None):
        q = np.asarray(q, dtype=float).reshape(self.n)
        r = np.asarray(r, dtype=float).reshape(self.k)

        z = -dpotrs(self.chol, q, lower=1)[0]
        smin = (r - self.A @ z).min(initial=np.inf)
        if smin >= -min(TOL, FEAS_TOL):
            # with nu = 0 the KKT residual is stationarity and feasibility
            res = max(np.abs(self.P @ z + q).max(), -smin)
            return QPResult(z, np.zeros(self.k), (), float(res), 0)

        if warm_active:
            key = tuple(sorted(set(int(i) for i in warm_active)))
            indep, M = self._law(key)
            rows = indep[0]
            zw = M @ np.concatenate([q, r[rows]])
            z, w = zw[:self.n], zw[self.n:]
            out = None
            if w.min(initial=0.0) >= 0.0 and (r - self.A @ z).min() >= -0.1 * TOL:
                out = self._accept(q, r, z, rows, w, 0)
            out = out or self._polish(q, r, indep, POLISH_ROUNDS)
            if out is not None:
                out.iters = 0
                return out

        out = self._polish(q, r, self._independent([]), 4 * self.k + 40)
        if out is not None:
            return out
        if self._certify_infeasible(r):
            raise Infeasible("constraint set is empty")
        raise MaxIters(f"QP solver stalled after {4 * self.k + 40} rounds")
