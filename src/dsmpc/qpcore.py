"""Dense strictly-convex QP engine:

    min_z  0.5 z' P z + q' z   s.t.   A z <= r,      P positive definite.

P = L L' and V = L^-1 A' are computed once.  A solve first tries an
active-set polish from the caller's warm active set, which solves only the
Schur systems of the active rows on the cached factor and forms no KKT
matrix.  Accelerated projected gradient on the multipliers is the cold path;
every POLISH_EVERY iterations it hands its near-active rows to the polish.  A
solution is accepted only when its KKT residual (stationarity, feasibility,
sign, complementarity) is below TOL, so the certificate is independent of the
iteration path.  Emptiness of the constraint set is certified with a
feasibility LP before Infeasible is raised."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs, dpstrf, dtrtrs
from scipy.optimize import linprog

from .errors import Infeasible, MaxIters

TOL = 1e-9              # KKT residual accepted as a solution
FEAS_TOL = 1e-8         # primal slack still counted as feasible
MAX_ITER = 200_000
POLISH_EVERY = 25       # gradient iterations between active-set polishes
POLISH_ROUNDS = 40      # active-set refinements per polish
PIVOT_TOL = 1e-10       # relative Schur pivot below which a row is dependent
DIVERGENCE_CAP = 1e8


@dataclass
class QPResult:
    z: np.ndarray
    nu: np.ndarray
    active: tuple
    kkt_residual: float
    iters: int


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
        if self.k:
            lmax = float(np.linalg.eigvalsh(
                self.V @ self.V.T if self.n < self.k else self.V.T @ self.V).max())
            self.dual_step = 1.0 / max(lmax, 1e-300)
        else:
            self.dual_step = 0.0

    def _primal(self, q, nu=None):
        rhs = q if nu is None else q + self.A.T @ nu
        return -dpotrs(self.chol, rhs, lower=1)[0]

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

    def _try_polish(self, q, r, active):
        """Active-set solve on the factor: (V_a' V_a) w = -(r_a + V_a' L^-1 q),
        z = -L^-T (L^-1 q + V_a w), rows dependent on the others dropped by a
        pivoted Cholesky.  The most negative multiplier goes until the set is
        dual feasible; the most violated row p then enters by Goldfarb-Idnani
        steps, raising its multiplier t and dropping the row whose multiplier
        reaches zero first.  Returns a certified QPResult or None."""
        y = dtrtrs(self.chol, q, lower=1)[0]
        active = sorted(set(int(i) for i in active))
        p, t = -1, 0.0
        for _ in range(POLISH_ROUNDS):
            Va = self.V[:, active]
            S = Va.T @ Va
            U, piv, rank, _ = dpstrf(S, tol=PIVOT_TOL * S.diagonal().max(initial=0.0))
            keep = piv[:rank] - 1
            active = [active[i] for i in keep]
            Va, U = Va[:, keep], U[:rank, :rank]
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
                    nu = np.zeros(self.k)
                    nu[active] = w
                    res = self.kkt_residual(z, nu, q, r)
                    active = tuple(np.flatnonzero(nu > 0.0).tolist())
                    return QPResult(z, nu, active, res, 0) if res <= TOL else None
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
                return None  # row p cannot be met; resume iterating
        return None

    def solve(self, q, r, warm_nu=None, warm_active=None):
        q = np.asarray(q, dtype=float).reshape(self.n)
        r = np.asarray(r, dtype=float).reshape(self.k)

        z = self._primal(q)
        if not self.k or (r - self.A @ z).min() >= -min(TOL, FEAS_TOL):
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
