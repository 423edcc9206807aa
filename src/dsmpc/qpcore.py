"""Dense strictly-convex QP engine:

    min_z  0.5 z' P z + q' z   s.t.   A z <= r,      P positive definite.

Accelerated projected gradient on the constraint multipliers, interleaved
with an active-set polish step that solves the equality-constrained KKT
system and recovers nonnegative multipliers by NNLS.  A solution is accepted
only when its KKT residual (stationarity, feasibility, sign, complementarity)
is below TOL, so the certificate is independent of the iteration path.
Emptiness of the constraint set is certified with a feasibility LP before
Infeasible is raised.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.optimize import linprog, nnls

from .errors import Infeasible, MaxIters

TOL = 1e-9              # KKT residual accepted as a solution
FEAS_TOL = 1e-8         # primal slack still counted as feasible
MAX_ITER = 200_000
POLISH_EVERY = 25       # gradient iterations between active-set polishes
POLISH_ROUNDS = 40      # active-set refinements per polish
DIVERGENCE_CAP = 1e8


@dataclass
class QPResult:
    z: np.ndarray
    nu: np.ndarray
    active: tuple
    kkt_residual: float
    iters: int


class DenseQP:
    """Factorized problem structure (P, A); q and r vary per solve."""

    def __init__(self, P, A):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        self.P = 0.5 * (P + P.T)
        try:
            self.chol = np.linalg.cholesky(self.P)
        except np.linalg.LinAlgError as exc:
            raise ValueError("QP Hessian is not positive definite") from exc
        self.A = np.asarray(A, dtype=float).reshape(-1, P.shape[0])
        self.n = P.shape[0]
        self.k = self.A.shape[0]
        if self.k:
            W = solve_triangular(self.chol, self.A.T, lower=True)
            lmax = float(np.linalg.eigvalsh(W.T @ W).max())
            self.dual_step = 1.0 / max(lmax, 1e-300)
        else:
            self.dual_step = 0.0

    def _primal(self, q, nu=None):
        rhs = q if nu is None else q + self.A.T @ nu
        return -cho_solve((self.chol, True), rhs)

    def kkt_residual(self, z, nu, q, r):
        stat = float(np.max(np.abs(self.P @ z + q + self.A.T @ nu))) if self.k \
            else float(np.max(np.abs(self.P @ z + q)))
        if not self.k:
            return stat
        slack = r - self.A @ z
        pfeas = float(max(0.0, -slack.min()))
        dfeas = float(max(0.0, -nu.min())) if nu.size else 0.0
        comp = float(np.max(np.abs(nu * slack))) if nu.size else 0.0
        return max(stat, pfeas, dfeas, comp)

    def _certify_infeasible(self, r):
        res = linprog(
            c=np.zeros(self.n),
            A_ub=self.A,
            b_ub=r,
            bounds=[(None, None)] * self.n,
            method="highs",
        )
        return res.status == 2

    def _try_polish(self, q, r, active):
        """Equality-solve on a candidate active set, refining it by adding
        violated rows and dropping zero-multiplier rows.  Returns a certified
        QPResult or None."""
        active = set(int(i) for i in active)
        for _ in range(POLISH_ROUNDS):
            idx = sorted(active)
            Aa = self.A[idx]
            ka = len(idx)
            if ka:
                kkt = np.zeros((self.n + ka, self.n + ka))
                kkt[: self.n, : self.n] = self.P
                kkt[: self.n, self.n:] = Aa.T
                kkt[self.n:, : self.n] = Aa
                rhs = np.concatenate([-q, r[idx]])
                sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
                for _ in range(2):  # refinement keeps pinned slacks near eps_mach
                    corr, *_ = np.linalg.lstsq(kkt, rhs - kkt @ sol, rcond=None)
                    sol = sol + corr
                z = sol[: self.n]
            else:
                z = self._primal(q)
            slack = r - self.A @ z
            worst = int(np.argmin(slack)) if self.k else -1
            if self.k and slack[worst] < -FEAS_TOL:
                if worst in active:
                    return None  # inconsistent active set; resume iterating
                active.add(worst)
                continue
            grad = self.P @ z + q
            if ka:
                w, resid = nnls(Aa.T, -grad)
                support = np.flatnonzero(w > 0.0)
                if support.size:
                    # re-solve on the support for full precision
                    ws, *_ = np.linalg.lstsq(Aa[support].T, -grad, rcond=None)
                    if ws.min() >= -10 * TOL:
                        w = np.zeros(ka)
                        w[support] = np.maximum(ws, 0.0)
                        resid = float(np.linalg.norm(Aa.T @ w + grad))
            else:
                w, resid = np.zeros(0), float(np.linalg.norm(grad))
            if resid > 10 * TOL:
                dropped = {i for i, wi in zip(idx, w) if wi <= 1e-14}
                if dropped and dropped != active:
                    active -= dropped
                    continue
                return None
            nu = np.zeros(self.k)
            for i, wi in zip(idx, w):
                nu[i] = wi
            res = self.kkt_residual(z, nu, q, r)
            if res <= TOL:
                return QPResult(z, nu, tuple(i for i in idx if nu[i] > 0.0), res, 0)
            return None
        return None

    def solve(self, q, r, warm_nu=None, warm_active=None):
        q = np.asarray(q, dtype=float).reshape(self.n)
        r = np.asarray(r, dtype=float).reshape(self.k)

        z = self._primal(q)
        if self.k == 0:
            return QPResult(z, np.zeros(0), (), self.kkt_residual(z, np.zeros(0), q, r), 0)
        slack0 = r - self.A @ z
        if slack0.min() >= -min(TOL, FEAS_TOL):
            nu = np.zeros(self.k)
            return QPResult(z, nu, (), self.kkt_residual(z, nu, q, r), 0)

        if warm_active:
            out = self._try_polish(q, r, warm_active)
            if out is not None:
                return out

        # Accelerated projected gradient on the multipliers with
        # gradient-based adaptive restart.
        nu = np.maximum(warm_nu, 0.0) if warm_nu is not None else np.zeros(self.k)
        y = nu.copy()
        theta = 1.0
        step = self.dual_step
        scale = 1.0 + float(np.max(np.abs(r)))
        certified_feasible = False
        checkpoints = {500, 5_000, 50_000}
        for it in range(1, MAX_ITER + 1):
            z = self._primal(q, y)
            grad = r - self.A @ z  # gradient of the negated dual at y
            nu_next = np.maximum(y - step * grad, 0.0)
            if (y - nu_next) @ (nu_next - nu) > 0.0:
                theta = 1.0  # restart momentum
            theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
            y = nu_next + ((theta - 1.0) / theta_next) * (nu_next - nu)
            nu, theta = nu_next, theta_next

            if it % POLISH_EVERY == 0 or it == MAX_ITER:
                zp = self._primal(q, nu)
                slack = r - self.A @ zp
                cand = set(np.flatnonzero(nu > max(TOL, 1e-12)).tolist())
                cand |= set(np.flatnonzero(slack < FEAS_TOL * scale).tolist())
                out = self._try_polish(q, r, cand)
                if out is not None:
                    out.iters = it
                    return out
                needs_check = (it in checkpoints or
                               float(np.max(np.abs(nu))) > DIVERGENCE_CAP * scale)
                if needs_check and not certified_feasible:
                    if self._certify_infeasible(r):
                        raise Infeasible("constraint set is empty")
                    certified_feasible = True
        if not certified_feasible and self._certify_infeasible(r):
            raise Infeasible("constraint set is empty")
        raise MaxIters(f"QP solver stalled after {MAX_ITER} iterations")
