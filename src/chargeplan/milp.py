"""Embedded LP/MIP kernel.

A solver-agnostic model container, a bounded dual simplex (with dual and
reduced-cost extraction), and ``best_first``: the one best-first search that
drives both the branch and bound here and branch-and-price in ``bp``, with a
bound that a time, node or round limit never lifts above the optimum.
Variable bounds stay implicit: a nonbasic variable rests at its lower or upper
bound, and each row's sense lives in the bounds of its logical variable.  The
standard form is built once per model and grows in place when columns are
appended (``Model.add_columns``); branch-and-bound children re-optimise from
their parent's basis, which a bound fix leaves dual feasible, so only the root
LP starts from the all-logical basis.  A basis stays usable after an append:
the new columns start nonbasic at their lower bound.  A warm start carries
the basis inverse too, so a solve inverts the basis only when updates have
built up or a residual check fails (see ``_DualSimplex``); the searches keep
the inverse on few open nodes.  A run that stalls on dual degeneracy restarts
on slightly perturbed costs and then returns to the true ones, and columns
whose reduced costs come back wrong-signed by noise after a flip are not
flipped again.  Dense arrays are deliberate: every model this package solves
is desk scale, and a self-contained kernel keeps results reproducible.  The
narrow ``solve_lp`` / ``solve_mip`` surface lets an external solver be
adapted in later without touching callers.

Dual sign convention for minimization: duals are shadow prices d(objective)/
d(rhs), so >= rows get nonnegative duals, <= rows nonpositive, = rows free.
An infeasible LP gets a Farkas ray in the same places: the dual simplex
stops on a leaving row that no column can repair, and that row of the basis
inverse, signed so the dual objective rises along it, is the ray y.  Its
signs follow the same convention, and y.(A x - r) < 0 for every x within the
variable bounds and every row activity r the senses allow, so no x meets the
rows.  The reduced costs -y.A_j are those of the problem with zero costs.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

INF = math.inf
CONTINUOUS = "continuous"
BINARY = "binary"
LE, GE, EQ = "<=", ">=", "="

_FEAS_TOL = 1e-7
_OPT_TOL = 1e-7
_PIVOT_TOL = 1e-9
_RESIDUAL_TOL = 1e-9    # relative residuals a carried basis inverse must meet
_INT_TOL = 1e-6
_REFACTOR_EVERY = 100   # basis updates between inversions, across warm starts
_MAX_PIVOTS_PER_COLUMN = 50   # iteration guard of one dual simplex run
_ROUNDS = 20            # dual simplex restarts after flips or a dual phase 1
_STALL_PIVOTS = 100     # pivots in a row with a dual step under _OPT_TOL: stalled
_NOISE_GAP = 1e-9       # relative objective gain below which a repeated flip is noise


class KernelError(RuntimeError):
    """Internal solver failure (iteration guard tripped, singular basis, ...)."""


class ModelError(ValueError):
    """Model construction violates the container's invariants."""


@dataclass(frozen=True)
class VarDef:
    id: int
    kind: str
    lower: float
    upper: float
    name: str


@dataclass(frozen=True)
class ConstraintDef:
    terms: tuple[tuple[int, float], ...]
    sense: str
    rhs: float
    name: str


def _nonzero_terms(pairs, count: int, what: str, where: str) -> dict[int, float]:
    """{id: coeff} of the nonzero (id, coeff) pairs of a row or a column, each
    id in range(count) and listed once."""
    clean: dict[int, float] = {}
    seen = set()
    for key, coeff in pairs:
        if key in seen:
            raise ModelError(f"duplicate {what} {key} in {where}")
        seen.add(key)
        if not 0 <= key < count:
            raise ModelError(f"unknown {what} id {key} in {where}")
        if coeff != 0.0:
            clean[key] = float(coeff)
    return clean


class Model:
    """Minimization MILP: variables with bounds, linear rows, linear objective."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.vars: list[VarDef] = []
        self.cons: list[ConstraintDef] = []
        self.obj: dict[int, float] = {}
        self.obj_offset: float = 0.0
        self._std = None  # standard form for solve_lp: add_columns extends it,
                          # every other change drops it

    def add_var(self, kind: str = CONTINUOUS, lower: float = 0.0, upper: float = INF,
                name: str = "") -> int:
        if kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown variable kind {kind!r}")
        if kind == BINARY and not (0.0 <= lower and upper <= 1.0):
            raise ModelError(f"binary variable bounds must lie in [0,1], got [{lower},{upper}]")
        if lower > upper:
            raise ModelError(f"variable lower bound {lower} exceeds upper bound {upper}")
        vid = len(self.vars)
        self._std = None
        self.vars.append(VarDef(vid, kind, float(lower), float(upper), name or f"v{vid}"))
        return vid

    def add_binary(self, name: str = "") -> int:
        return self.add_var(BINARY, 0.0, 1.0, name)

    def add_constraint(self, terms, sense: str, rhs: float, name: str = "") -> int:
        if sense not in (LE, GE, EQ):
            raise ModelError(f"unknown constraint sense {sense!r}")
        clean = _nonzero_terms(terms, len(self.vars), "variable", f"constraint {name!r}")
        idx = len(self.cons)
        self._std = None
        self.cons.append(ConstraintDef(tuple(clean.items()), sense, float(rhs),
                                       name or f"c{idx}"))
        return idx

    def add_columns(self, costs, entries, lower: float = 0.0, upper: float = INF) -> list[int]:
        """Append continuous variables together with their entries in existing
        rows: column k has objective coefficient ``costs[k]`` and the
        (row, coeff) pairs ``entries[k]``.  Unlike ``add_var`` this keeps what
        ``solve_lp`` holds for the model: the cached standard form grows in
        place, and an ``LpBasis`` taken before the append still warm-starts
        the larger model, with the new columns nonbasic at their lower bound."""
        if lower > upper:
            raise ModelError(f"variable lower bound {lower} exceeds upper bound {upper}")
        first = len(self.vars)
        cols = [_nonzero_terms(col, len(self.cons), "row", f"column {vid}")
                for vid, col in enumerate(entries, first)]
        if len(cols) != len(costs):
            raise ModelError(f"{len(costs)} costs for {len(cols)} columns")
        by_row: dict[int, list] = {}
        for vid, (cost, col) in enumerate(zip(costs, cols), first):
            self.vars.append(VarDef(vid, CONTINUOUS, float(lower), float(upper), f"v{vid}"))
            if cost != 0.0:
                self.obj[vid] = float(cost)
            for row, coeff in col.items():
                by_row.setdefault(row, []).append((vid, coeff))
        for row, terms in by_row.items():
            con = self.cons[row]
            self.cons[row] = ConstraintDef(con.terms + tuple(terms), con.sense, con.rhs, con.name)
        if self._std is not None:
            self._std.append(cols, float(lower), float(upper), costs)
        return list(range(first, len(self.vars)))

    def set_objective(self, terms, offset: float = 0.0) -> None:
        obj: dict[int, float] = {}
        for vid, coeff in terms:
            obj[vid] = obj.get(vid, 0.0) + float(coeff)
        self.obj = obj
        self.obj_offset = float(offset)
        self._std = None

    @property
    def num_vars(self) -> int:
        return len(self.vars)

    @property
    def num_constraints(self) -> int:
        return len(self.cons)

    @property
    def binary_ids(self) -> list[int]:
        return [v.id for v in self.vars if v.kind == BINARY]

    @property
    def num_binaries(self) -> int:
        return sum(1 for v in self.vars if v.kind == BINARY)


@dataclass
class LpSolution:
    """One LP solve.  When optimal, ``duals`` and ``reduced_costs`` are the
    optimal duals y and c_j - y.A_j.  When infeasible, they are a Farkas ray
    y and the zero-cost reduced costs -y.A_j (see the module docstring), and
    ``basis`` is the basis the proof ended on, for a warm start once the
    model has changed; bound overrides that cross are infeasible with
    neither ray nor basis."""

    status: str                    # optimal | infeasible | unbounded
    values: dict[int, float]
    objective: float
    duals: dict[int, float]
    reduced_costs: dict[int, float]
    basis: LpBasis | None = None   # final basis, for warm starts
    pivots: int = 0                # basis changes the dual simplex made, phase 1 included
    refactors: int = 0             # basis inversions, phase 1 and restarts included


@dataclass
class MipSolution:
    # optimal: gap within gap_tol; feasible: an incumbent without that proof;
    # time_limit: cut short without an incumbent; infeasible: proven
    status: str
    values: dict[int, float]
    objective: float
    bound: float
    gap: float
    nodes: int = 0


@dataclass(frozen=True)
class MipLimits:
    time_limit_s: float | None = None
    gap_tol: float = 1e-6
    node_limit: int | None = None


# ---------------------------------------------------------------------------
# Bounded dual simplex


@dataclass(frozen=True, eq=False)
class LpBasis:
    """A simplex basis, enough to warm-start ``solve_lp``.

    ``head[i]`` is the column basic in row i and ``at_upper`` lists the
    nonbasic columns resting at their upper bound.  Column j < n is variable
    j and column n + i is the logical of row i, where n is the number of
    variables when the basis was taken.  ``inverse`` is the basis inverse the
    solve ended on (row i belongs to ``head[i]``), after ``updates`` pivots
    since it was last inverted; a solve from this basis starts from a copy of
    it.  Appended columns are nonbasic, so ``Model.add_columns`` leaves it
    valid.  Without it, the solve inverts the basis first.
    """
    head: np.ndarray
    at_upper: np.ndarray
    n: int
    inverse: np.ndarray | None = None
    updates: int = 0

    def bare(self) -> LpBasis:
        """The same basis without its inverse, to keep one that waits long."""
        return LpBasis(self.head, self.at_upper, self.n)

    def columns(self, n: int):
        """(head, at_upper) for the model grown to n variables by
        ``Model.add_columns``: the logicals move up by the columns appended."""
        if n < self.n:
            raise ModelError(f"basis of a {self.n}-variable model, model has {n}")
        shift = n - self.n
        return (np.where(self.head >= self.n, self.head + shift, self.head),
                np.where(self.at_upper >= self.n, self.at_upper + shift, self.at_upper))


class _StandardForm:
    """The model as  min c.x  s.t.  A x + s = 0,  lo <= (x, s) <= up.

    The logical s_i = -a_i.x carries the sense and right-hand side of row i
    in its bounds, so every variable bound stays implicit, [A | I] always has
    full row rank and the all-logical basis is the identity.  Built once per
    model; bound overrides only replace ``lo`` and ``up``, and appended
    columns go into spare capacity of ``A``'s buffer.
    """

    def __init__(self, model: Model):
        n, m = model.num_vars, model.num_constraints
        self.n, self.m = n, m
        # column-major, so that appended columns and column gathers are contiguous
        self._buf = np.zeros((m, n), order="F")
        self.A = self._buf
        self.lo = np.empty(n + m)
        self.up = np.empty(n + m)
        for i, con in enumerate(model.cons):
            for vid, coeff in con.terms:
                self.A[i, vid] = coeff
            self.lo[n + i] = -INF if con.sense == GE else -con.rhs
            self.up[n + i] = INF if con.sense == LE else -con.rhs
        for v in model.vars:
            self.lo[v.id] = v.lower
            self.up[v.id] = v.upper
        self.c = np.zeros(n + m)
        for vid, coeff in model.obj.items():
            self.c[vid] = coeff
        self.offset = model.obj_offset
        self.rows_of = [np.flatnonzero(self.A[:, j]) for j in range(n)]
        # appended columns are continuous, so this stays complete
        self.binary = np.array([v.id for v in model.vars if v.kind == BINARY], dtype=np.intp)

    def append(self, cols: list[dict], lower: float, upper: float, costs) -> None:
        """Add structural columns ({row: coeff} each) after the last one; the
        logicals move up by their number."""
        n, k = self.n, len(cols)
        if n + k > self._buf.shape[1]:
            buf = np.zeros((self.m, max(n + k, 2 * n)), order="F")
            buf[:, :n] = self.A
            self._buf = buf
        for j, col in enumerate(cols, n):
            for row, coeff in col.items():
                self._buf[row, j] = coeff
            self.rows_of.append(np.fromiter(sorted(col), dtype=np.intp, count=len(col)))
        self.A = self._buf[:, :n + k]
        self.lo = np.concatenate([self.lo[:n], np.full(k, lower), self.lo[n:]])
        self.up = np.concatenate([self.up[:n], np.full(k, upper), self.up[n:]])
        self.c = np.concatenate([self.c[:n], np.asarray(costs, dtype=float), self.c[n:]])
        self.n = n + k


def _standard_form(model: Model) -> _StandardForm:
    if model._std is None:
        model._std = _StandardForm(model)
    return model._std


def _invert(std: _StandardForm, head: np.ndarray) -> np.ndarray:
    """The inverse of the basis ``head``: with the basic logicals covering
    rows L, only the square block of basic structurals on the other rows
    needs a dense inverse."""
    n, m = std.n, std.m
    ks = np.flatnonzero(head < n)
    kl = np.flatnonzero(head >= n)
    cols, logical_rows = head[ks], head[kl] - n
    rest = np.ones(m, dtype=bool)
    rest[logical_rows] = False
    rows = np.flatnonzero(rest)
    binv = np.zeros((m, m))
    if ks.size:
        try:
            inv = np.linalg.inv(std.A[np.ix_(rows, cols)])
        except np.linalg.LinAlgError:
            raise KernelError("singular basis") from None
        if not np.isfinite(inv).all():
            raise KernelError("singular basis")
        binv[np.ix_(ks, rows)] = inv
        binv[np.ix_(kl, rows)] = -std.A[np.ix_(logical_rows, cols)] @ inv
    binv[kl, logical_rows] = 1.0
    return binv


class _DualSimplex:
    """Bounded dual simplex on a standard form under given bounds and costs.

    Keeps an explicit basis inverse, updated at every pivot.  It starts from
    a carried inverse when it is given one and inverts the basic columns
    afresh only when an accuracy check fails or ``_REFACTOR_EVERY`` updates
    have built up, counted across warm starts.  The checks are the pivot
    element against the pivot row at every pivot, and the primal and dual
    residuals of x and y recomputed through the inverse (``settle``) when the
    solver starts and before it declares optimality.  Rows are priced by dual
    steepest edge with exact weights; the ratio test passes the breakpoints
    of boxed columns by flipping them to their other bound (bound-flipping
    ratio test) and picks the largest pivot among the breakpoints within the
    dual tolerance (Harris).
    """

    def __init__(self, std: _StandardForm, lo, up, cost, head, at_upper,
                 inverse: np.ndarray | None = None, updates: int = 0):
        n, m = std.n, std.m
        self.std, self.lo, self.up, self.c = std, lo, up, cost
        self.head = np.array(head, dtype=np.intp)
        self.pos = np.full(n + m, -1, dtype=np.intp)
        self.pos[self.head] = np.arange(m)
        self.finite_lo = np.isfinite(lo)
        finite_up = np.isfinite(up)
        self.movable = lo < up
        self.range = up - lo
        self.at_up = (at_upper & finite_up) | (~self.finite_lo & finite_up)
        self.x = np.where(self.at_up, up, np.where(self.finite_lo, lo, 0.0))
        self.pivots = self.refactors = 0
        if inverse is None:
            self.refactor()
        else:
            self.binv, self.updates = inverse, updates
            self.settle()

    def resume(self, lo, up, cost, at_upper) -> _DualSimplex:
        """A solver on this basis under other bounds or costs.  It takes over
        the inverse, which this solver must not use again, and carries on the
        pivot and inversion counts."""
        nxt = _DualSimplex(self.std, lo, up, cost, self.head, at_upper, self.binv, self.updates)
        nxt.pivots += self.pivots
        nxt.refactors += self.refactors
        return nxt

    def refactor(self) -> None:
        """Invert the basis afresh from its columns."""
        self.binv = _invert(self.std, self.head)
        self.updates = 0
        self.refactors += 1
        self._recompute()
        self.checked = True

    def _recompute(self) -> np.ndarray:
        """x of the basic columns, y, d and the steepest-edge weights through
        the inverse.  Returns the dual residual c_B - y B: d on the basic
        columns before they are set to 0."""
        std, head, binv = self.std, self.head, self.binv
        n = std.n
        x = self.x
        x[head] = 0.0
        x[head] = -(binv @ (std.A @ x[:n] + x[n:]))
        self.y = self.c[head] @ binv
        self.d = self.c.copy()
        self.d[:n] -= self.y @ std.A
        self.d[n:] -= self.y
        residual = self.d[head]
        self.d[head] = 0.0
        self.w = np.einsum("ij,ij->i", binv, binv)
        return residual

    def settle(self) -> None:
        """Recompute x, y and d through the current inverse and check it: the
        primal residual A x + s and the dual residual c_B - y B must vanish to
        ``_RESIDUAL_TOL`` relative to the size of x and of c_B.  If either
        fails, the basis is inverted afresh."""
        dual = np.abs(self._recompute()).max(initial=0.0)
        std, x = self.std, self.x
        primal = np.abs(std.A @ x[:std.n] + x[std.n:]).max(initial=0.0)
        accurate = (primal <= _RESIDUAL_TOL * (1.0 + np.abs(x).max(initial=0.0))
                    and dual <= _RESIDUAL_TOL * (1.0 + np.abs(self.c[self.head]).max(initial=0.0)))
        if not accurate:  # NaN residuals fail too
            self.refactor()
        self.checked = True

    def wrong_sign(self) -> np.ndarray:
        """Mask of the nonbasic columns whose reduced cost points past the
        bound they rest on."""
        d = self.d
        at_lo = ~self.at_up & self.finite_lo
        return ((self.pos < 0) & self.movable
                & (((d < -_OPT_TOL) & ~self.at_up) | ((d > _OPT_TOL) & ~at_lo)))

    def flip(self, cols: np.ndarray) -> None:
        n = self.std.n
        self.at_up[cols] = ~self.at_up[cols]
        new = np.where(self.at_up[cols], self.up[cols], self.lo[cols])
        delta = new - self.x[cols]
        self.x[cols] = new
        v = np.zeros(self.std.m)
        s = cols < n
        v += self.std.A[:, cols[s]] @ delta[s]
        np.add.at(v, cols[~s] - n, delta[~s])
        self.x[self.head] -= self.binv @ v

    def run(self, stall_pivots: int | None = None) -> str:
        """Dual phase 2 from a dual feasible basis: 'optimal' once the basis
        is primal feasible with x, y and d recomputed and checked by
        ``settle``, 'infeasible' on an unbounded dual ray (the signed pivot
        row alpha it leaves in ``ray``: y on the logicals), 'stalled' after
        ``stall_pivots`` pivots in a row that barely move the dual (dual
        degeneracy)."""
        std = self.std
        A, n = std.A, std.n
        flat = 0
        for _ in range(_MAX_PIVOTS_PER_COLUMN * (n + std.m + 40)):
            head = self.head
            xb = self.x[head]
            below = self.lo[head] - xb
            above = xb - self.up[head]
            infeas = np.maximum(below, above)
            infeas[infeas <= _FEAS_TOL] = 0.0
            if not infeas.any():
                if self.checked:
                    return "optimal"
                self.settle()
                continue
            r = int(np.argmax(infeas * infeas / self.w))
            to_lower = below[r] > 0.0
            p = int(head[r])

            rho = self.binv[r]
            alpha = np.empty(n + std.m)
            alpha[:n] = rho @ A
            alpha[n:] = rho
            a = self.ray = -alpha if to_lower else alpha
            at_lo = ~self.at_up & self.finite_lo
            cand = np.flatnonzero(
                (self.pos < 0) & self.movable
                & (((a > _PIVOT_TOL) & ~self.at_up) | ((a < -_PIVOT_TOL) & ~at_lo))
            )
            if cand.size == 0:
                return "infeasible"
            ac, dc = a[cand], self.d[cand]
            ratio = np.maximum(dc / ac, 0.0)
            order = np.argsort(ratio, kind="stable")
            cand, ac, dc, ratio = cand[order], ac[order], dc[order], ratio[order]
            # bound flipping: pass each boxed breakpoint while the dual
            # objective still rises along the ray, that is while the flips
            # leave the row infeasible by more than the tolerance
            k = int(np.searchsorted(np.cumsum(np.abs(ac) * self.range[cand]),
                                    infeas[r] - _FEAS_TOL))
            if k == cand.size:
                return "infeasible"
            tail_a = ac[k:]
            harris = max(((dc[k:] + np.copysign(_OPT_TOL, tail_a)) / tail_a).min(), ratio[k])
            near = np.flatnonzero(ratio[k:] <= harris)
            pick = k + int(near[np.argmax(np.abs(tail_a[near]))])
            flat = flat + 1 if ratio[pick] < _OPT_TOL else 0
            if stall_pivots is not None and flat > stall_pivots:
                return "stalled"
            q = int(cand[pick])
            if k:
                self.flip(cand[:k])

            if q < n:
                rows = std.rows_of[q]
                col = self.binv[:, rows] @ A[rows, q]
            else:
                col = self.binv[:, q - n].copy()
            piv = col[r]
            if abs(piv - alpha[q]) > 1e-7 * (1.0 + abs(piv)):
                self.refactor()  # the updated inverse has drifted
                continue

            theta_d = ratio[pick] if not to_lower else -ratio[pick]
            self.d -= theta_d * alpha
            self.d[head] = 0.0
            self.d[p] = -theta_d
            self.d[q] = 0.0

            bound = self.lo[p] if to_lower else self.up[p]
            theta_p = (self.x[p] - bound) / piv
            self.x[head] -= theta_p * col
            self.x[q] += theta_p
            self.x[p] = bound

            self.at_up[p] = not to_lower
            self.pos[p] = -1
            self.pos[q] = r
            head[r] = q

            binv = self.binv
            binv[r] /= piv
            touched = np.flatnonzero(col)
            touched = touched[touched != r]
            if touched.size:
                binv[touched] -= np.outer(col[touched], binv[r])
            touched = np.append(touched, r)
            self.w[touched] = np.einsum("ij,ij->i", binv[touched], binv[touched])
            self.updates += 1
            self.pivots += 1
            self.checked = False
            if self.updates >= _REFACTOR_EVERY:
                self.refactor()
        raise KernelError("dual simplex iteration guard tripped")


def _phase1_bounds(lo: np.ndarray, up: np.ndarray):
    """Bounds of the auxiliary problem whose optimal basis minimises the sum
    of dual infeasibilities: boxed columns fixed at 0, one-sided ones boxed
    to a unit interval on their open side, free ones to [-1, 1]."""
    flo, fup = np.isfinite(lo), np.isfinite(up)
    boxed = flo & fup
    return (np.where(boxed | flo, 0.0, -1.0), np.where(boxed | fup, 0.0, 1.0))


def _perturbed(cost: np.ndarray, sim: _DualSimplex, seed: int) -> np.ndarray:
    """Costs that break a stalled run's dual degeneracy: each movable
    nonbasic column's cost moves by a small random amount, relative to its
    size, in the direction its bound already favours, so the basis stays dual
    feasible while the ties among reduced costs break."""
    step = (10 * _OPT_TOL + _OPT_TOL * np.abs(cost)) \
        * np.random.default_rng(seed).uniform(0.5, 1.0, cost.size)
    side = np.where(sim.at_up, -1.0, np.where(sim.finite_lo, 1.0, 0.0))
    return cost + np.where((sim.pos < 0) & sim.movable, side * step, 0.0)


def _optimize(std: _StandardForm, lo, up, cost, head, at_upper, inverse=None, updates=0):
    """Dual simplex from the given basis (and its inverse, if given), with a
    dual phase 1 when that basis is not dual feasible.  A run that stalls
    restarts on perturbed costs; its optimal basis then goes back to the true
    costs, where bound flips (or a dual phase 1) repair what the perturbation
    hid.  Each stage takes over the inverse of the one before.  Returns
    (status, solver) with status 'optimal', 'infeasible' or 'dual_infeasible'
    (no dual feasible basis exists, so the LP is unbounded or infeasible);
    the solver counts the pivots and inversions of every stage."""
    sim = _DualSimplex(std, lo, up, cost, head, at_upper, inverse, updates)
    solved = False
    flipped = np.zeros(std.n + std.m, dtype=bool)
    for round_no in range(_ROUNDS):
        bad = sim.wrong_sign()
        if (solved and flipped[bad].all() and np.abs(sim.d[bad]) @ sim.range[bad]
                <= _NOISE_GAP * max(1.0, abs(sim.c @ sim.x))):
            # only columns flipped before are wrong again, and flipping them
            # all could not gain a relative 1e-9 of the objective: that is the
            # noise of these reduced costs, and more flips would cycle
            bad[:] = False
        if not bad.any():
            if solved:
                return "optimal", sim
        else:
            boxed = bad & np.isfinite(sim.range)
            if boxed.any():
                sim.flip(np.flatnonzero(boxed))
                flipped |= boxed
            if (bad & ~boxed).any():
                aux = sim.resume(*_phase1_bounds(lo, up), cost, sim.at_up)
                aux.flip(np.flatnonzero(aux.wrong_sign()))
                if aux.run() != "optimal":
                    raise KernelError("dual phase 1 must reach an optimum")
                sim = aux.resume(lo, up, cost, aux.d < 0.0)
                bad = sim.wrong_sign()
                if (bad & ~np.isfinite(sim.range)).any():
                    return "dual_infeasible", sim
                sim.flip(np.flatnonzero(bad))
        status = sim.run(_STALL_PIVOTS)
        if status == "infeasible":
            return "infeasible", sim
        solved = status == "optimal"
        if not solved or sim.c is not cost:
            costs = cost if solved else _perturbed(cost, sim, round_no)
            sim = sim.resume(lo, up, costs, sim.at_up)
    raise KernelError("dual simplex did not settle on a dual feasible optimum")


def solve_lp(model: Model, overrides: dict[int, tuple[float, float]] | None = None,
             basis: LpBasis | None = None) -> LpSolution:
    """Solve the continuous relaxation (all kinds treated as continuous).

    ``overrides`` tightens variable bounds.  ``basis`` warm-starts the dual
    simplex from an earlier solution's basis, typically the parent's in
    branch and bound, where tightening a bound keeps it dual feasible, or the
    last solve's before columns were appended.  The solve starts from a copy
    of the basis inverse when the basis carries one, and returns its own
    final inverse with the basis.
    """
    std = _standard_form(model)
    n, m = std.n, std.m
    lo, up = std.lo.copy(), std.up.copy()
    if overrides:
        for vid, (l, u) in overrides.items():
            lo[vid] = max(lo[vid], l)
            up[vid] = min(up[vid], u)
    if np.any(lo > up + 1e-12):
        return LpSolution("infeasible", {}, INF, {}, {})
    up = np.maximum(up, lo)
    at_upper = np.zeros(n + m, dtype=bool)
    inverse, updates = None, 0
    if basis is None:
        head = np.arange(n, n + m)
    else:
        if len(basis.head) != m:
            raise ModelError(f"basis has {len(basis.head)} rows, model has {m}")
        head, upper = basis.columns(n)
        at_upper[upper] = True
        inverse, updates = basis.inverse, basis.updates

    def optimize(cost):
        return _optimize(std, lo, up, cost, head, at_upper,
                         None if inverse is None else inverse.copy(), updates)

    status, sim = optimize(std.c)
    pivots, refactors = sim.pivots, sim.refactors
    if status == "dual_infeasible":
        status, sim = optimize(np.zeros(n + m))
        pivots, refactors = pivots + sim.pivots, refactors + sim.refactors
        if status == "optimal":
            return LpSolution("unbounded", {}, -INF, {}, {}, pivots=pivots, refactors=refactors)
    if status == "optimal":
        x = sim.x[:n]
        values, objective = dict(enumerate(x.tolist())), float(std.c[:n] @ x + std.offset)
        y, d = sim.y, sim.d[:n]
    else:
        values, objective = {}, INF
        y, d = sim.ray[n:], -sim.ray[:n]
    return LpSolution(status, values, objective, dict(enumerate(y.tolist())),
                      dict(enumerate(d.tolist())),
                      LpBasis(sim.head, np.flatnonzero(sim.at_up & (sim.pos < 0)), n,
                              sim.binv, sim.updates),
                      pivots, refactors)


# ---------------------------------------------------------------------------
# Best-first search


@dataclass
class SearchResult:
    status: str                    # optimal | feasible | infeasible | time_limit
    plan: object                   # the incumbent, None without one
    objective: float
    bound: float
    gap: float
    nodes: int                     # nodes expanded


def _gap(objective: float, bound: float) -> float:
    if bound >= objective:
        return 0.0
    if objective == INF:
        return INF
    return (objective - bound) / max(abs(objective), 1e-9)


def best_first(nodes, plans, expand, deadline: float | None = None, gap_tol: float = 1e-6,
               node_limit: int | None = None) -> SearchResult:
    """Best-first search over open nodes, shared by branch and bound and
    branch and price.

    ``nodes`` are (bound, node) pairs and ``plans`` are (objective, plan)
    pairs.  ``expand(node, objective)`` gets the incumbent objective and
    returns (children, plans, floor): floor is a lower bound on any part of
    the node's subtree that it left unsearched, INF when none.  The open node
    with the lowest bound goes first, ties in push order, and a node that
    cannot beat the incumbent by 1e-9 is dropped.  The search stops when no
    node is left, when the gap closes to ``gap_tol``, at ``deadline`` (on the
    ``time.monotonic`` clock) or after ``node_limit`` expansions.

    The bound is min(incumbent, every floor, every open node).  The status is
    'optimal' only when the gap is within ``gap_tol``; otherwise 'feasible'
    with an incumbent, 'time_limit' when the search was cut short (or left a
    floor) without one, and 'infeasible' when it finished without one.
    """
    heap: list = []
    seq = itertools.count()
    best, best_plan = INF, None
    floor = INF
    expanded = 0

    def take(new_nodes, new_plans) -> None:
        nonlocal best, best_plan
        for objective, plan in new_plans:
            if objective < best - 1e-9:
                best, best_plan = objective, plan
        for bound, node in new_nodes:
            if bound < best - 1e-9:
                heapq.heappush(heap, (bound, next(seq), node))

    take(nodes, plans)
    cut = False
    while heap:
        if _gap(best, min(floor, heap[0][0])) <= gap_tol:
            break
        if ((deadline is not None and time.monotonic() > deadline)
                or (node_limit is not None and expanded >= node_limit)):
            cut = True
            break
        bound, _, node = heapq.heappop(heap)
        if bound >= best - 1e-9:
            heap.clear()  # best-first: no open node can beat the incumbent
            break
        children, new_plans, node_floor = expand(node, best)
        expanded += 1
        floor = min(floor, node_floor)
        take(children, new_plans)

    bound = min(best, floor, heap[0][0] if heap else INF)
    gap = _gap(best, bound)
    if best_plan is None:
        status = "time_limit" if cut or floor < INF else "infeasible"
    else:
        status = "optimal" if gap <= gap_tol else "feasible"
    return SearchResult(status, best_plan, best, bound, gap, expanded)


# ---------------------------------------------------------------------------
# Branch and bound


def _branch_variable(std: _StandardForm, values: dict[int, float]) -> int | None:
    """The most fractional binary, ties toward the lowest id; None when every
    binary is integral."""
    x = np.fromiter(values.values(), dtype=float, count=len(values))[std.binary]
    frac = np.flatnonzero(np.minimum(x, 1.0 - x) > _INT_TOL)
    return int(std.binary[frac[np.argmin(np.abs(x[frac] - 0.5))]]) if frac.size else None


def solve_mip(model: Model, limits: MipLimits | None = None) -> MipSolution:
    """Best-first branch and bound on ``best_first``, branching on the most
    fractional binary (ties toward the lowest variable id).  Both children of
    a node are solved when it is expanded, each re-optimised from the
    parent's LP basis and its inverse, so an open node carries its own LP
    objective and keeps only that basis.  Only the node being expanded and
    the children of the latest expansion keep their inverse; an older open
    node's basis is inverted again once, when it is expanded, for both of
    its children.  Deterministic for a fixed model."""
    limits = limits or MipLimits()
    deadline = None if limits.time_limit_s is None else time.monotonic() + limits.time_limit_s
    std = _standard_form(model)
    lp_calls = 0
    latest = []  # the node expanded last and its children

    def solve_node(overrides, basis=None):
        """The LP of one node as (open nodes, plans): an open node when the
        LP is fractional, a plan when it is integral, neither when infeasible."""
        nonlocal lp_calls
        lp = solve_lp(model, overrides, basis=basis)
        lp_calls += 1
        if lp.status == "unbounded":
            raise KernelError("LP relaxation unbounded; MIP is ill-posed")
        if lp.status != "optimal":
            return [], []
        branch_var = _branch_variable(std, lp.values)
        if branch_var is None:
            return [], [(lp.objective, lp.values)]
        return [(lp.objective, [overrides, branch_var, lp.basis])], []

    def expand(node, _objective):
        # only this node and the latest children keep a basis inverse
        for other in latest:
            if other is not node:
                other[2] = other[2].bare()
        latest[:] = [node]
        overrides, branch_var, basis = node
        if basis.inverse is None:
            basis = LpBasis(basis.head, basis.at_upper, basis.n, _invert(std, basis.head))
        children, plans = [], []
        for fix in (0.0, 1.0):
            kids, found = solve_node({**overrides, branch_var: (fix, fix)}, basis)
            children += kids
            plans += found
        latest.extend(kid for _, kid in children)
        return children, plans, INF

    res = best_first(*solve_node({}), expand, deadline, limits.gap_tol, limits.node_limit)
    vals = {}
    if res.plan is not None:
        # snap binaries to exact integers for downstream decoding
        vals = dict(res.plan)
        for vid in std.binary.tolist():
            vals[vid] = round(vals[vid])
    return MipSolution(res.status, vals, res.objective, res.bound, res.gap, lp_calls)
