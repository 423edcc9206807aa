"""Dense strictly-convex QP engine:

    min_z  0.5 z' P z + q' z   s.t.   A z <= r,      P positive definite.

P = L L' and V = L^-1 A' are computed once.  On a fixed active set a the
solution is affine in the data, (z, nu_a) = M_a (q, r_a), the law of
explicit MPC; `DenseQP._law` builds M_a from the set alone and `law_test`
applies the padded laws of a stack of one shape (the coordinator's round).
`DenseQP.solve` is the one certified solve of a single QP: the active-set
polish from the warm set, then the Goldfarb-Idnani dual active-set method
(Math. Prog. 27, 1983) from the empty set, both on the cached factor.  Every
path accepts by `kkt_verdict`, the full KKT residual (stationarity,
feasibility, sign, complementarity) below TOL, so the certificate is
independent of the path.  Emptiness of the constraint set is certified with
a feasibility LP before Infeasible is raised."""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrs, dpstrf, dtrtrs
from scipy.optimize import linprog

from .errors import Infeasible, MaxIters

TOL = 1e-9              # KKT residual accepted as a solution
POLISH_ROUNDS = 40      # active-set refinements from a warm set
PIVOT_TOL = 1e-10       # relative Schur pivot below which a row is dependent


@dataclass
class QPResult:
    z: np.ndarray
    nu: np.ndarray
    active: tuple
    kkt_residual: float
    iters: int          # Goldfarb-Idnani rounds of a cold start, else 0


@lru_cache
def _bounds(n, k):
    """`kkt_verdict`'s bounds, as a read-only view (the cache shares it)."""
    return np.broadcast_to(np.repeat([TOL, 0.1 * TOL, 0, TOL], [n, k, k, k]), n + 3 * k)


def kkt_verdict(stat, slack, nu):
    """(res, ok) of one QP's candidate or a stack's (leading axis), from its
    stationarity P z + q + A' nu, slack r - A z and multipliers nu: res is
    the KKT residual; ok says res <= TOL, slack >= -0.1 TOL and nu >= 0."""
    e = np.concatenate([np.abs(stat), -slack, -nu, np.abs(nu * slack)], -1)
    return e.max(-1), (e <= _bounds(stat.shape[-1], nu.shape[-1])).all(-1)


def law_test(K, M, q, r):
    """(z, nu, res, ok) of the padded laws M (g, n+k, n+k) applied to a
    stack of QPs of one shape with KKT matrices K = [P A'; A 0]: one
    product for (z, nu), one for the residual, then `kkt_verdict`."""
    n = q.shape[-1]
    zn = (M @ np.concatenate([q, r], -1)[..., None])[..., 0]
    kz = (K @ zn[..., None])[..., 0]
    res, ok = kkt_verdict(kz[..., :n] + q, r - kz[..., n:], zn[..., n:])
    return zn[..., :n], zn[..., n:], res, ok


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

    @cached_property
    def Pinv(self):
        """P^-1 from the factor, formed on first use (laws, batched rounds)."""
        return dpotrs(self.chol, np.eye(self.n), lower=1)[0]

    def _certify_infeasible(self, r):
        return linprog(np.zeros(self.n), A_ub=self.A, b_ub=r, bounds=(None, None),
                       method="highs").status == 2

    def _independent(self, active):
        """The rows of `active` left after a pivoted Cholesky of
        S = V_a' V_a drops those dependent on the others, their columns V_a
        and the upper factor U of their S."""
        Va = self.V[:, active]
        S = Va.T @ Va
        U, piv, rank, _ = dpstrf(S, tol=PIVOT_TOL * S.diagonal().max(initial=0.0))
        keep = piv[:rank] - 1
        return [active[i] for i in keep], Va[:, keep], U[:rank, :rank]

    def _accept(self, q, z, rows, w, iters, slack):
        """(z, nu, residual, iters) for z with multipliers w on `rows` and
        slack r - A z, if `kkt_verdict` accepts it, else None."""
        nu = np.zeros(self.k)
        nu[rows] = w
        res, ok = kkt_verdict(self.P @ z + q + self.A.T @ nu, slack, nu)
        return (z, nu, float(res), iters) if ok else None

    def _law(self, active):
        """(indep, M) for the active set `active`, a list of rows: indep =
        (rows, V_rows, U) are its independent rows, and (z, w) = M (q, r_rows)
        with w = -S^-1 (r_a + V_a' L^-1 q) and z = -P^-1 q - L^-T V_a w.
        Built from the set alone, so a kept law equals a rebuilt one."""
        rows, Va, U = indep = self._independent(active)
        Y = dtrtrs(self.chol, Va, lower=1, trans=1)[0]  # L^-T V_a
        W = -_cho_solve(U, np.hstack([Y.T, np.eye(len(rows))]))
        Z = -Y @ W
        Z[:, :self.n] -= self.Pinv
        return indep, np.vstack([Z, W])

    def _polish(self, q, r, start, rounds):
        """Active-set solve on the factor from `start`, the _independent
        result of the first set: (V_a' V_a) w = -(r_a + V_a' L^-1 q),
        z = -L^-T (L^-1 q + V_a w), rows dependent on the others dropped.  The
        most negative multiplier goes until the set is dual feasible; the
        most violated row p then enters by Goldfarb-Idnani steps, raising its
        multiplier t and dropping the row whose multiplier reaches zero
        first.  Returns the certified (z, nu, residual, rounds taken), or
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
                if slack.min(initial=np.inf) >= -0.1 * TOL:
                    return self._accept(q, z, active, w, it, slack)
                p = int(np.argmin(slack))
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
        """The certified solution: the polish from `warm_active` (unless
        empty), then Goldfarb-Idnani from the empty set, whose `iters` counts
        its rounds (at least one).  `warm_active`, a sequence of distinct
        rows such as a QPResult.active, only affects speed."""
        q = np.asarray(q, dtype=float).reshape(self.n)
        r = np.asarray(r, dtype=float).reshape(self.k)
        warm = [] if warm_active is None else list(warm_active)
        out = self._polish(q, r, self._independent(warm), POLISH_ROUNDS) \
            if warm else None
        if out is not None:
            out = out[:3] + (0,)  # a warm polish counts no cold rounds
        else:
            out = self._polish(q, r, self._independent([]), 4 * self.k + 40)
        if out is None:
            if self._certify_infeasible(r):
                raise Infeasible("constraint set is empty")
            raise MaxIters(f"QP solver stalled after {4 * self.k + 40} rounds")
        z, nu, res, iters = out
        return QPResult(z, nu, tuple(np.flatnonzero(nu > 0.0).tolist()), res, iters)
