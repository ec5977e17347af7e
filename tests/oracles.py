"""Independent test oracles.

Everything here is deliberately separate from the library's own code
paths: LP optima proved exact in rationals (from the float solver's basis,
else by an exact rational simplex), dense numpy grid search
for function maxima and assembly feasibility, a rotation-system brute
force for small sphere graphs, the refinement step enumerator, the
Cayley-Menger recursion, the record reader and the `.lp` reader built on
it, the Taylor bound as first written, an interval walk of an expression
and its partials with the public interval operations, mpmath for
high-precision scalar references, directed-rounding kernels that decide
every rounding by exact integer ratios, and a decimal reader that rounds
by one exact integer division, with Clinger's float-division case beside
it.  None of it is shipped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from rigorkit import expr as ex
from rigorkit import geom
from rigorkit import interval as iv
from rigorkit import lp
from rigorkit import records as rec
from rigorkit.errors import DomainError, ParseError
from rigorkit.interval import Interval
from rigorkit.lp import DualSolution, LpProblem


class OracleInfeasible(Exception):
    pass


class OracleUnbounded(Exception):
    pass


def simplex_max(aineq: Sequence[Sequence[Fraction]],
                bineq: Sequence[Fraction],
                aeq: Sequence[Sequence[Fraction]],
                beq: Sequence[Fraction],
                c: Sequence[Fraction]) -> tuple[Fraction, list[Fraction]]:
    """Exact rational simplex: max c.x s.t. Aineq x <= bineq, Aeq x = beq,
    x >= 0.  Two-phase dense tableau with Bland's rule (no cycling).

    Returns (optimum, primal solution).
    """
    m1, m2 = len(aineq), len(aeq)
    n = len(c)
    rows = m1 + m2

    # Normalize to nonnegative rhs; inequality rows keep a slack column,
    # rows that were flipped (or are equalities) get an artificial.
    tab_rows = []
    rhs = []
    slack_info = []  # per original ineq row: +1 slack or -1 surplus
    for i in range(m1):
        row = [Fraction(v) for v in aineq[i]]
        b = Fraction(bineq[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
            slack_info.append(-1)
        else:
            slack_info.append(1)
        tab_rows.append(row)
        rhs.append(b)
    for i in range(m2):
        row = [Fraction(v) for v in aeq[i]]
        b = Fraction(beq[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        tab_rows.append(row)
        rhs.append(b)

    n_slack = m1
    needs_artificial = [slack_info[i] == -1 for i in range(m1)] + [True] * m2
    art_cols = {}
    total = n + n_slack + sum(needs_artificial)
    T = [[Fraction(0)] * (total + 1) for _ in range(rows)]
    for i in range(rows):
        for j in range(n):
            T[i][j] = tab_rows[i][j]
        T[i][total] = rhs[i]
    for i in range(m1):
        T[i][n + i] = Fraction(slack_info[i])
    k = n + n_slack
    basis = [None] * rows
    for i in range(rows):
        if needs_artificial[i]:
            T[i][k] = Fraction(1)
            art_cols[i] = k
            basis[i] = k
            k += 1
        else:
            basis[i] = n + i

    def pivot(T, basis, pr, pc):
        piv = T[pr][pc]
        T[pr] = [v / piv for v in T[pr]]
        for r in range(len(T)):
            if r != pr and T[r][pc] != 0:
                f = T[r][pc]
                T[r] = [a - f * b for a, b in zip(T[r], T[pr])]
        basis[pr] = pc

    def run_simplex(T, basis, obj, allowed_cols):
        # obj: cost row (maximize), reduced costs recomputed each iteration
        while True:
            # reduced costs: c_j - c_B . B^{-1} A_j over the tableau
            red = list(obj)
            for r, bv in enumerate(basis):
                if obj[bv] != 0:
                    f = obj[bv]
                    red = [rc - f * tv for rc, tv in zip(red, T[r][:-1])]
            pc = None
            for j in allowed_cols:
                if red[j] > 0:
                    pc = j  # Bland: smallest index
                    break
            if pc is None:
                return
            pr = None
            best = None
            for r in range(len(T)):
                if T[r][pc] > 0:
                    ratio = T[r][-1] / T[r][pc]
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[pr]):
                        best = ratio
                        pr = r
            if pr is None:
                raise OracleUnbounded()
            pivot(T, basis, pr, pc)

    # Phase 1: maximize -(sum of artificials)
    if art_cols:
        obj1 = [Fraction(0)] * total
        for col in art_cols.values():
            obj1[col] = Fraction(-1)
        allowed = list(range(total))
        run_simplex(T, basis, obj1, allowed)
        val = sum(T[r][-1] for r in range(rows) if basis[r] in art_cols.values())
        if val != 0:
            raise OracleInfeasible()
        # drive artificials out of the basis where possible
        for r in range(rows):
            if basis[r] in art_cols.values():
                for j in range(n + n_slack):
                    if T[r][j] != 0:
                        pivot(T, basis, r, j)
                        break

    # Phase 2: maximize c over structural + slack columns
    obj2 = [Fraction(0)] * total
    for j in range(n):
        obj2[j] = Fraction(c[j])
    art_set = set(art_cols.values())
    allowed = [j for j in range(total) if j not in art_set]
    run_simplex(T, basis, obj2, allowed)

    x = [Fraction(0)] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[r][-1]
    opt = sum(Fraction(c[j]) * x[j] for j in range(n))
    return opt, x


def inequality_rows(p: LpProblem) -> tuple[list[tuple[float, ...]], list[float]]:
    """Every inequality of p as an explicit dense row, with right-hand
    sides: the rows of p.aineq, then x_j <= hi_j and -x_j <= -lo_j for each
    variable j in turn, the order the dual vector z follows."""
    rows, rhs = list(p.aineq), list(p.bineq)
    for j, b in enumerate(p.var_bounds):
        for sign, bound in ((1.0, b.hi), (-1.0, -b.lo)):
            rows.append(tuple(sign if i == j else 0.0 for i in range(p.n)))
            rhs.append(bound)
    return rows, rhs


def exact_lp_optimum(p: LpProblem) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum of an LpProblem whose variables all have lower bound
    exactly 0 (the form our random generators produce).  Redundant
    -x_i <= 0 rows are dropped; everything else is passed through."""
    n = p.n
    for b in p.var_bounds:
        if b.lo != 0.0:
            raise ValueError("oracle expects variables with lower bound 0")
    aineq = []
    bineq = []
    for row, rhs in zip(*inequality_rows(p)):
        nz = [(j, v) for j, v in enumerate(row) if v != 0.0]
        if len(nz) == 1 and nz[0][1] == -1.0 and rhs == 0.0:
            continue  # -x_j <= 0, implied by the x >= 0 domain
        aineq.append([Fraction(v) for v in row])
        bineq.append(Fraction(rhs))
    aeq = [[Fraction(v) for v in row] for row in p.aeq]
    beq = [Fraction(v) for v in p.beq]
    c = [Fraction(v) for v in p.c]
    return (basis_optimum(aineq, bineq, aeq, beq, c)
            or simplex_max(aineq, bineq, aeq, beq, c))


# A float value at most this much, relative to 1 + the largest |x_j|, is
# read as zero when the float solution names its basis.
_BASIS_TOL = 1e-9


def basis_optimum(aineq: Sequence[Sequence[Fraction]],
                  bineq: Sequence[Fraction],
                  aeq: Sequence[Sequence[Fraction]],
                  beq: Sequence[Fraction],
                  c: Sequence[Fraction]) -> Optional[tuple[Fraction, list[Fraction]]]:
    """max c.x s.t. Aineq x <= bineq, Aeq x = beq, x >= 0, as (optimum,
    primal solution), from the float solver's optimal basis proved optimal
    in rationals (Applegate, Cook, Dash & Espinoza, "Exact solutions to
    linear programming problems", Oper. Res. Lett. 35 (2007)).

    The basic columns S are the variables the float solution puts above
    zero.  The basis rows are picked from the equalities and then the
    tight inequalities, by decreasing float dual, each kept if independent
    of those before, until there are |S|.  x_S solves the basis system and
    y its transpose with right-hand side c_S, both in Fractions.  If x is
    primal feasible (x >= 0, every row held) and y dual feasible (y >= 0
    on inequality rows, c_j <= y.A_j for every column), weak duality and
    c.x = y.b prove c.x optimal.  None when the solver fails or a check
    does not hold."""
    import numpy as np
    from scipy.optimize import linprog

    n, m1 = len(c), len(aineq)
    a, b = [*aineq, *aeq], [*bineq, *beq]

    def dense(rows):
        return np.array(rows, dtype=float).reshape(len(rows), n) if rows else None

    res = linprog(-np.array(c, dtype=float), A_ub=dense(aineq),
                  b_ub=np.array(bineq, dtype=float) if m1 else None,
                  A_eq=dense(aeq), b_eq=np.array(beq, dtype=float) if aeq else None,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        return None
    tol = _BASIS_TOL * (1.0 + max(map(abs, res.x), default=0.0))
    cols = [j for j in range(n) if res.x[j] > tol]
    tight = sorted((i for i in range(m1) if res.ineqlin.residual[i] <= tol),
                   key=lambda i: res.ineqlin.marginals[i])   # -dual, most negative first
    candidates = [*range(m1, len(a)), *tight]
    rows = [candidates[k] for k in
            _independent_rows([[a[i][j] for j in cols] for i in candidates], len(cols))]
    if len(rows) != len(cols):
        return None
    basis = [[a[i][j] for j in cols] for i in rows]
    x_s = _solve(basis, [b[i] for i in rows])
    y_r = _solve([list(col) for col in zip(*basis)], [c[j] for j in cols])
    if x_s is None or y_r is None or any(v < 0 for v in x_s):
        return None
    x = [Fraction(0)] * n
    for j, v in zip(cols, x_s):
        x[j] = v
    for i, row in enumerate(a):
        ax = sum(aij * xj for aij, xj in zip(row, x) if xj)
        if ax > b[i] or (i >= m1 and ax != b[i]):
            return None
    if any(v < 0 for i, v in zip(rows, y_r) if i < m1):
        return None
    for j in range(n):
        if sum(y * a[i][j] for i, y in zip(rows, y_r)) < c[j]:
            return None
    return sum(cj * xj for cj, xj in zip(c, x)), x


def _independent_rows(rows: Sequence[Sequence[Fraction]], limit: int) -> list[int]:
    """Indices of the rows that are independent of the rows before them,
    in order, up to `limit` of them (exact elimination)."""
    echelon: list[tuple[int, list[Fraction]]] = []   # (pivot column, reduced row)
    picked = []
    for idx, row in enumerate(rows):
        if len(picked) == limit:
            break
        r = list(row)
        for col, e in echelon:
            if r[col]:
                f = r[col] / e[col]
                r = [u - f * v for u, v in zip(r, e)]
        col = next((j for j, v in enumerate(r) if v), None)
        if col is not None:
            echelon.append((col, r))
            picked.append(idx)
    return picked


def _solve(m: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
           ) -> Optional[list[Fraction]]:
    """The solution of the square system m z = rhs by exact Gauss-Jordan
    elimination, or None when m is singular."""
    k = len(m)
    t = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(m, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if t[r][col]), None)
        if piv is None:
            return None
        t[col], t[piv] = t[piv], t[col]
        inv = 1 / t[col][col]
        t[col] = [v * inv for v in t[col]]
        for r in range(k):
            if r != col and t[r][col]:
                f = t[r][col]
                t[r] = [u - f * v for u, v in zip(t[r], t[col])]
    return [row[k] for row in t]


def reference_certify(p: LpProblem, d: DualSolution
                      ) -> tuple[float, float, tuple[Interval, ...]]:
    """(bound, delta_bound, residual) of lp.certify_upper_bound, computed
    one interval object at a time.  Each delta_j = c_j - (y Aeq + z A)_j is
    reference_add_products from c_j over the pairs (-m_i, A_ij) with m_i
    and A_ij nonzero, in row order, where A is every inequality as an
    explicit row (inequality_rows) and m runs over y, then z; then D and
    the bound by iv.add and iv.mul on point intervals.  Any
    NonFiniteOperand is raised where that sequence first meets a
    non-finite operand."""
    rows_ineq, rhs_ineq = inequality_rows(p)
    live = [(-m, row) for m, row in zip((*d.y, *d.z), (*p.aeq, *rows_ineq)) if m != 0.0]
    delta = []
    for j, c_j in enumerate(p.c):
        pairs = [(m, row[j]) for m, row in live if row[j] != 0.0]
        delta.append(Interval(*reference_add_products([m for m, _ in pairs],
                                                      [a for _, a in pairs], c_j, c_j)))
    d_total = Interval.point(0.0)
    for dj, b in zip(delta, p.var_bounds):
        d_total = Interval(*iv.add(d_total, iv.mul(Interval.point(dj.mag),
                                                   Interval.point(b.mag))))
    total = d_total
    for mult, rhs in ((d.y, p.beq), (d.z, rhs_ineq)):
        for yi, b in zip(mult, rhs):
            total = Interval(*iv.add(total, iv.mul(Interval.point(yi), Interval.point(b))))
    return total.hi, d_total.hi, tuple(delta)


def reference_add_products(xs: Sequence[float], ys: Sequence[float],
                           lo: float = 0.0, hi: float = 0.0) -> tuple[float, float]:
    """iv.add_products as the interval chain it replaces:
    acc = add(acc, mul(point(x_i), point(y_i))) from acc = [lo, hi]."""
    acc = Interval(lo, hi)
    for x, y in zip(xs, ys):
        acc = Interval(*iv.add(acc, iv.mul(Interval.point(x), Interval.point(y))))
    return acc.lo, acc.hi


def reference_taylor_upper_bound(ev: ex.Evaluator, box) -> float:
    """taylor.taylor_upper_bound as the interval chain it was first written
    as: every gradient and Hessian term added to f(c) by iv.add and iv.mul
    on point intervals, raising the failing operation's own error."""
    if ev.arity != box.n:
        raise ValueError(f"evaluator arity {ev.arity} != box dimension {box.n}")
    center_box = tuple(Interval.point(c) for c in box.midpoint())
    w = [Interval(*iv.sub(d, c)).mag for d, c in zip(box.dims, center_box)]
    germ = ev.germ(center_box)
    live = [i for i in range(box.n) if w[i] != 0.0]
    total = germ.f
    for i in live:
        total = Interval(*iv.add(total, iv.mul(
            Interval.point(germ.df[i].mag), Interval.point(w[i]))))
    entries = [(i, j) for i in live for j in live if i <= j]
    half = Interval(0.5, 0.5)
    for (i, j), h in zip(entries, ev.hessian(box.dims, entries)):
        term = iv.mul(Interval.point(h.mag),
                      iv.mul(Interval.point(w[i]), Interval.point(w[j])))
        total = Interval(*iv.add(total, term if i != j else iv.mul(half, term)))
    return total.hi


def _reference_interval_walk(roots: Sequence[ex.Expr], outputs: Sequence[ex.Expr],
                             box: Sequence[Interval]) -> list[Interval]:
    """The outputs' enclosures over the box, by walking the roots in
    post-order (children left to right, a shared node once) with the
    public interval operations, each value kept as an Interval.  Only the nodes the outputs depend on are
    evaluated, in the order the walk of all the roots meets them, so the
    first node to raise is the one an Evaluator that lowered the same
    roots in the same order meets first."""
    needed: dict = {}
    for out in outputs:
        for node in ex._post_order(out, needed):
            needed[node] = None
    walk: dict = {}
    order = []
    for root in roots:
        for node in ex._post_order(root, walk):
            walk[node] = None
            order.append(node)
    vals: dict = {}
    v = vals.__getitem__
    for node in order:
        if node not in needed:
            continue
        match node:
            case ex.Const(text=t):
                r = iv.from_decimal_string(t)
            case ex.Var(index=i):
                r = box[i]
            case ex.Add(left=a, right=b):
                r = iv.add(v(a), v(b))
            case ex.Sub(left=a, right=b):
                r = iv.sub(v(a), v(b))
            case ex.Mul(left=a, right=b):
                r = iv.mul(v(a), v(b))
            case ex.Div(left=a, right=b):
                r = iv.div(v(a), v(b))
            case ex.Pow(base=a, exponent=k):
                r = iv.pow_int(v(a), k)
            case ex.Sqrt(arg=a):
                # the value is undefined where the argument is negative
                if v(a).lo < 0.0:
                    raise DomainError(f"sqrt of possibly-negative interval "
                                      f"[{v(a).lo}, {v(a).hi}]")
                r = iv.sqrt_interval(v(a))
            case ex.Atan(num=a, den=b):
                r = iv.atan_interval(iv.div(v(a), v(b)))
        vals[node] = Interval(*r)
    return [v(e) for e in outputs]


def reference_germ(e: ex.Expr, arity: int, box: Sequence[Interval]) -> list[Interval]:
    """[f, df/dx0, ..., df/dx{arity-1}] over the box, as a fresh
    Evaluator's germ lowers them: f, then each first partial of
    ex.differentiate in turn."""
    partials = [ex.differentiate(e, i) for i in range(arity)]
    roots = [e, *partials]
    return _reference_interval_walk(roots, roots, box)


def reference_hessian(e: ex.Expr, box: Sequence[Interval],
                      entries: Sequence[tuple[int, int]]) -> list[Interval]:
    """The second partials (i, j) over the box, as a fresh Evaluator's
    hessian lowers them: f, then for each entry d/dx_max(df/dx_min) after
    df/dx_min."""
    roots, outputs = [e], []
    for i, j in entries:
        first = ex.differentiate(e, min(i, j))
        second = ex.differentiate(first, max(i, j))
        roots += [first, second]
        outputs.append(second)
    return _reference_interval_walk(roots, outputs, box)


def reference_read_records(text: str, fields, header: Optional[str] = None) -> list[rec.Record]:
    """records.read_records as first written: one record at a time, each
    line's fields converted as the line is read, so the first bad line is
    the first one met."""
    out: list[rec.Record] = []
    for line, raw in enumerate(text.splitlines(), 1):
        content = rec.strip_comment(raw).strip()
        if not content:
            continue
        words = content.split()
        kw, args = words[0].lower(), words[1:]
        if kw == header and not out:
            if args != ["v1"]:
                raise rec.line_error(line, f"expected the header '{header} v1'")
            continue
        spec = fields.get(kw)
        if spec is None:
            raise rec.line_error(line, f"unknown keyword {kw!r}")
        variadic = not isinstance(spec, tuple)
        if (not args) if variadic else len(args) != len(spec):
            raise rec.line_error(line, f"malformed entry {content!r}: wrong number of fields")
        if spec is rec.TEXT:
            values = (content.split(None, 1)[1],)
        else:
            fns = spec * len(args) if variadic else spec
            try:
                values = tuple([fn(tok) for fn, tok in zip(fns, args)])
            except (ParseError, ValueError) as exc:
                raise rec.line_error(line, str(exc)) from None
        out.append(rec.Record(line, kw, values))
    return out


def reference_lp_from_records(text: str) -> LpProblem:
    """lp.problem_from_text as first written: every record through
    reference_read_records, {key: last value} tables keyed by row and
    column, and the dense rows filled from those tables, with the same
    errors."""
    records = reference_read_records(text, lp._PROBLEM_FIELDS, header="lp-problem")
    decls = [v[0] for _, kw, v in records if kw == "vars"]
    if not decls:
        raise ParseError("missing 'vars N' declaration")
    n = decls[-1]
    for line, kw, v in records:
        if kw in ("obj", "bound", "eq", "ineq") and v[-2] >= n:
            raise rec.line_error(line, f"variable {v[-2]} out of range for 'vars {n}'")
    t = {kw: rec.table(records, kw)
         for kw in ("obj", "bound", "eq", "eq_rhs", "ineq", "ineq_rhs")}
    if len(t["bound"]) != n:
        raise ParseError("every variable needs a bound entry")

    def dense(kw):
        entries, rhs = t[kw], t[kw + "_rhs"]
        rows = {r for r, _ in entries} | set(rhs)
        m = len(rows)
        if rows and max(rows) >= m:
            gap = next(r for r in range(m) if r not in rows)
            line, r = min((line, v[0]) for line, k, v in records
                          if k in (kw, kw + "_rhs") and v[0] > gap)
            raise rec.line_error(line, f"row {r} is given but row {gap} is not")
        a = [[0.0] * n for _ in range(m)]
        for (r, j), v in entries.items():
            a[r][j] = v
        return a, [rhs.get(r, 0.0) for r in range(m)]

    aeq, beq = dense("eq")
    aineq, bineq = dense("ineq")
    return lp.make_problem([t["obj"].get(j, 0.0) for j in range(n)],
                           [t["bound"][j] for j in range(n)],
                           aineq=aineq, bineq=bineq, aeq=aeq, beq=beq)


# ---------------------------------------------------------------------------
# Dense numeric evaluation of Expr over numpy grids
# ---------------------------------------------------------------------------

def evaluate_on_arrays(e: ex.Expr, values: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized float64 evaluation; no rigor claim, oracle use only."""
    match e:
        case ex.Const(text=t):
            return np.full_like(values[0], float(Fraction(t)), dtype=float)
        case ex.Var(index=i):
            return values[i]
        case ex.Add(left=a, right=b):
            return evaluate_on_arrays(a, values) + evaluate_on_arrays(b, values)
        case ex.Sub(left=a, right=b):
            return evaluate_on_arrays(a, values) - evaluate_on_arrays(b, values)
        case ex.Mul(left=a, right=b):
            return evaluate_on_arrays(a, values) * evaluate_on_arrays(b, values)
        case ex.Div(left=a, right=b):
            return evaluate_on_arrays(a, values) / evaluate_on_arrays(b, values)
        case ex.Pow(base=a, exponent=k):
            return evaluate_on_arrays(a, values) ** k
        case ex.Sqrt(arg=a):
            return np.sqrt(evaluate_on_arrays(a, values))
        case ex.Atan(num=a, den=b):
            return np.arctan(evaluate_on_arrays(a, values) / evaluate_on_arrays(b, values))
    raise TypeError(f"not an Expr node: {e!r}")


def grid_max(e: ex.Expr, bounds: Sequence[tuple[float, float]],
             total_points: int = 10**6) -> float:
    """Dense-grid maximum of an expression over a box (numpy, float64)."""
    n = len(bounds)
    per_dim = max(2, int(round(total_points ** (1.0 / n))))
    axes = [np.linspace(lo, hi, per_dim) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [m.ravel() for m in mesh]
    return float(np.max(evaluate_on_arrays(e, flat)))


# ---------------------------------------------------------------------------
# High-precision scalar references
# ---------------------------------------------------------------------------

def mp_atan(x: float, dps: int = 50):
    import mpmath
    with mpmath.workdps(dps):
        return mpmath.atan(x)


def mp_sqrt(x: float, dps: int = 50):
    import mpmath
    with mpmath.workdps(dps):
        return mpmath.sqrt(x)


# ---------------------------------------------------------------------------
# Directed-rounding reference kernels: every error sign decided by exact
# integer-ratio products (the library's kernels before TwoProduct).
# ---------------------------------------------------------------------------

def _mul_err_sign(x: float, y: float, p: float) -> int:
    # sign of exact(x*y) - p, all arguments finite
    nx, dx = x.as_integer_ratio()
    ny, dy = y.as_integer_ratio()
    np_, dp = p.as_integer_ratio()
    lhs = nx * ny * dp
    rhs = np_ * dx * dy
    return (lhs > rhs) - (lhs < rhs)


def _div_err_sign(x: float, y: float, q: float) -> int:
    # sign of exact(x/y) - q; y != 0, all finite
    nx, dx = x.as_integer_ratio()
    ny, dy = y.as_integer_ratio()
    nq, dq = q.as_integer_ratio()
    num = nx * dy * dq - nq * dx * ny
    if ny < 0:
        num = -num
    return (num > 0) - (num < 0)


def _sqrt_err_sign(x: float, s: float) -> int:
    # sign of sqrt(x) - s for x >= 0, s >= 0: same as sign of x - s*s
    nx, dx = x.as_integer_ratio()
    ns, ds = s.as_integer_ratio()
    lhs = nx * ds * ds
    rhs = ns * ns * dx
    return (lhs > rhs) - (lhs < rhs)


def _next_up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _next_down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def reference_mul_down(x: float, y: float) -> float:
    p = x * y
    if math.isinf(p):
        return _next_down(p) if p > 0 else p
    return _next_down(p) if _mul_err_sign(x, y, p) < 0 else p


def reference_mul_up(x: float, y: float) -> float:
    p = x * y
    if math.isinf(p):
        return _next_up(p) if p < 0 else p
    return _next_up(p) if _mul_err_sign(x, y, p) > 0 else p


def reference_div_down(x: float, y: float) -> float:
    q = x / y
    if math.isinf(q):
        return _next_down(q) if q > 0 else q
    return _next_down(q) if _div_err_sign(x, y, q) < 0 else q


def reference_div_up(x: float, y: float) -> float:
    q = x / y
    if math.isinf(q):
        return _next_up(q) if q < 0 else q
    return _next_up(q) if _div_err_sign(x, y, q) > 0 else q


def reference_sqrt_down(x: float) -> float:
    s = math.sqrt(x)
    return _next_down(s) if _sqrt_err_sign(x, s) < 0 else s


def reference_sqrt_up(x: float) -> float:
    s = math.sqrt(x)
    return _next_up(s) if _sqrt_err_sign(x, s) > 0 else s


def reference_round_decimal(s: str) -> tuple[float, int, int]:
    """A decimal numeral rounded to the nearest binary64 value f (ties to
    even) by one exact integer division, with integers num and den > 0
    such that num/den - f has the sign of (exact value - f): num/den is the
    value itself, or a stand-in of the same sign when the value rounds to
    zero from below half the smallest subnormal.  Raises the reader's
    ParseError for text that is not a numeral and for an overflow."""
    m = iv._DECIMAL_RE.match(s.strip())
    if not m:
        raise ParseError(f"invalid decimal numeral {iv._excerpt(s)!r}")
    sign, whole, frac, exp = m.groups(default="")
    body = (whole + frac).lstrip("0")
    if not body:
        return 0.0, 0, 1
    e = exp.lstrip("+-").lstrip("0") or "0"
    scale = (-1 if exp.startswith("-") else 1) * (10**18 if len(e) > 18 else int(e)) - len(frac)
    # 10**(mag - 1) <= |value| < 10**mag
    mag = scale + len(body)
    if mag > 310:
        raise ParseError(f"decimal numeral {iv._excerpt(s)!r} overflows binary64")
    if mag < -330:
        # Below half the smallest subnormal: rounds to a signed zero.
        return (-0.0, -1, 1) if sign == "-" else (0.0, 1, 1)
    if len(body) > 800:
        # 768 significant digits decide any rounding; one sticky digit
        # stands for the rest
        sticky = "1" if body[800:].strip("0") else "0"
        scale += len(body) - 801
        body = body[:800] + sticky
    digits = int(sign + body)
    num, den = (digits * 10 ** scale, 1) if scale >= 0 else (digits, 10 ** -scale)
    try:
        return num / den, num, den
    except OverflowError:
        raise ParseError(f"decimal numeral {iv._excerpt(s)!r} overflows binary64") from None


def short_decimal(s: str) -> Optional[float]:
    """Clinger's exact case ("How to read floating point numbers
    accurately", PLDI 1990): a plain ASCII numeral [+-]digits[.digits] of at
    most 15 significant digits and k <= 22 fraction digits is N / 10**k with
    N and 10**k exact floats, so one float division rounds it correctly.
    None for any other text."""
    body = s[1:] if s[:1] in ("+", "-") else s
    whole, dot, frac = body.partition(".")
    if not (whole.isdigit() and whole.isascii() and len(frac) <= 22
            and (not dot or (frac.isdigit() and frac.isascii()))):
        return None
    digits = (whole + frac).lstrip("0")
    if not digits:
        return 0.0  # every zero numeral reads as +0.0
    if len(digits) > 15:
        return None
    n = float(int(digits)) / 10.0 ** len(frac)
    return -n if s[0] == "-" else n


# ---------------------------------------------------------------------------
# Random expression generation
# ---------------------------------------------------------------------------

_CONST_POOL = ["0.5", "1", "2", "0.25", "3", "1.5", "0.125", "4", "0.75"]


def random_expr(rng, arity: int, depth: int, polynomial: bool = False) -> ex.Expr:
    """Random well-formed expression of bounded depth.  With
    polynomial=True only +, -, *, pow are used (plus leaves)."""
    if depth <= 1 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return ex.Const(rng.choice(_CONST_POOL))
        return ex.Var(rng.randrange(arity))
    ops = ["add", "sub", "mul", "mul", "pow"]
    if not polynomial:
        ops += ["div", "sqrt", "atan"]
    op = rng.choice(ops)
    if op == "add":
        return ex.Add(random_expr(rng, arity, depth - 1, polynomial),
                      random_expr(rng, arity, depth - 1, polynomial))
    if op == "sub":
        return ex.Sub(random_expr(rng, arity, depth - 1, polynomial),
                      random_expr(rng, arity, depth - 1, polynomial))
    if op == "mul":
        return ex.Mul(random_expr(rng, arity, depth - 1, polynomial),
                      random_expr(rng, arity, depth - 1, polynomial))
    if op == "pow":
        return ex.Pow(random_expr(rng, arity, depth - 1, polynomial),
                      rng.choice([2, 2, 3, 4]))
    if op == "div":
        # keep denominators away from zero: 1 + (...)^2 style
        den = ex.Add(ex.Const(rng.choice(["1", "2"])),
                     ex.Pow(random_expr(rng, arity, depth - 2 or 1, polynomial), 2))
        return ex.Div(random_expr(rng, arity, depth - 1, polynomial), den)
    if op == "sqrt":
        arg = ex.Add(ex.Const(rng.choice(["1", "0.5"])),
                     ex.Pow(random_expr(rng, arity, depth - 2 or 1, polynomial), 2))
        return ex.Sqrt(arg)
    den = ex.Add(ex.Const("1"),
                 ex.Pow(random_expr(rng, arity, depth - 2 or 1, polynomial), 2))
    return ex.Atan(random_expr(rng, arity, depth - 1, polynomial), den)


def reference_evaluate_numeric(e: ex.Expr, point: Sequence[float]) -> float:
    """Plain binary64 evaluation by walking the expression: iterative,
    children left to right, memoised on nodes, constants read by
    decimal_to_nearest_float when the walk reaches them.  This is how
    `expr.evaluate_numeric` worked before it ran a FloatPlan."""
    memo: dict = {}
    v = memo.__getitem__
    for node in ex._post_order(e, memo):
        match node:
            case ex.Const(text=t):
                r = iv.decimal_to_nearest_float(t)
            case ex.Var(index=i):
                r = point[i]
            case ex.Add(left=a, right=b):
                r = v(a) + v(b)
            case ex.Sub(left=a, right=b):
                r = v(a) - v(b)
            case ex.Mul(left=a, right=b):
                r = v(a) * v(b)
            case ex.Div(left=a, right=b):
                r = v(a) / v(b)
            case ex.Pow(base=a, exponent=k):
                r = v(a) ** k
            case ex.Sqrt(arg=a):
                r = math.sqrt(v(a))
            case ex.Atan(num=a, den=b):
                r = math.atan(v(a) / v(b))
        memo[node] = r
    return v(e)


# ---------------------------------------------------------------------------
# The linked-line check's fixed sweep
# ---------------------------------------------------------------------------

def reference_linked_sweep(spec: geom.DistanceSpec) -> geom.CheckResult:
    """Verdict and reason of geom.check_linked_line by the sweep it used
    before the dyadic one: c in [-1, 1] cut into 256 equal cells for each
    sign of s, every cell tested in order, inconclusive at the first cell
    not refuted.  Stage 1 and the binding are the library's."""
    refuted = geom._bind_linked_line(spec)
    if isinstance(refuted, geom.CheckResult):
        return refuted
    grid = [Interval(-1.0 + 2.0 * t / 256, -1.0 + 2.0 * (t + 1) / 256) for t in range(256)]
    for s_sign in (1, -1):
        for cell in grid:
            if not refuted(cell, s_sign):
                return geom.CheckResult(geom.Verdict.INCONCLUSIVE,
                                        reason="a sweep cell could not be refuted")
    return geom.CheckResult(geom.Verdict.NO_SUCH_CONFIGURATION,
                            reason="every cell of the cable/strut-bound sweep violates "
                                   "a distance bound or the linking test (verdict is "
                                   "relative to the pivot binding)")


# ---------------------------------------------------------------------------
# The Cayley-Menger determinant by plain recursion
# ---------------------------------------------------------------------------

def reference_cayley_menger_det(d: Sequence[Interval]) -> Interval:
    """geom.cayley_menger_det as first written: the bordered matrix of the
    squared distances d01 d02 d03 d12 d13 d23, expanded along the first
    row by a recursion that recomputes every minor wherever it occurs."""
    zero, one = Interval(0.0, 0.0), Interval(1.0, 1.0)
    rows = [[zero] + [one] * 4] + [[one] + [zero] * 4 for _ in range(4)]
    for (i, j), dij in zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), d, strict=True):
        rows[i + 1][j + 1] = rows[j + 1][i + 1] = iv.pow_int(dij, 2)

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = zero
        for j in range(n):
            minor = [[rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
            term = iv.mul(rows[0][j], det(minor))
            total = iv.add(total, term) if j % 2 == 0 else iv.sub(total, term)
        return total

    return Interval(*det(rows))


# ---------------------------------------------------------------------------
# Refinement steps as first written
# ---------------------------------------------------------------------------

def reference_enumerate_steps(g, budget: int) -> list:
    """graphgen._enumerate_steps as it was first written (a subset bitmask
    and a recursive gap distribution): the admissible steps through the
    fixed face and edge, in the order generate() pushes their children."""
    from rigorkit import graphgen as gg

    face = gg._fixed_face_and_edge(g)
    k = len(face)
    bverts = [d[0] for d in face]
    steps = []

    def gaps_of(keep: tuple[int, ...]) -> list[tuple[int, int]]:
        # vertex-index pairs (a, b) for each gap: after keep[1], ..., closing
        out = []
        for t in range(1, len(keep)):
            out.append((keep[t], keep[(t + 1) % len(keep)] if t + 1 < len(keep) else keep[0]))
        return out

    def chord_ok(a_idx: int, b_idx: int) -> bool:
        # a gap crossed directly: adjacent boundary positions reuse the
        # existing edge; otherwise a new chord must not already exist
        if (a_idx + 1) % k == b_idx:
            return True
        return not g.has_edge(bverts[a_idx], bverts[b_idx])

    # choose keep = (0, 1, then any subset of 2..k-1)
    rest = list(range(2, k))
    for mask in range(1 << len(rest)):
        keep = [0, 1] + [rest[i] for i in range(len(rest)) if (mask >> i) & 1]
        gaps = gaps_of(tuple(keep))
        # distribute new vertices: news[t] >= 0 per gap, sum <= budget
        def rec(t: int, remaining: int, news: list[int]):
            if t == len(gaps):
                kt = tuple(keep)
                nt = tuple(news)
                if len(keep) == k and sum(news) == 0:
                    steps.append(gg.RefinementStep(kt, nt))  # P = Q flip
                    return
                if len(keep) + sum(news) < 3:
                    return  # Q must be a simple polygon
                ok = True
                for (a, b), j in zip(gaps, news):
                    if j == 0 and not chord_ok(a, b):
                        ok = False
                        break
                if ok:
                    steps.append(gg.RefinementStep(kt, nt))
                return
            for j in range(remaining + 1):
                news.append(j)
                rec(t + 1, remaining - j, news)
                news.pop()
        rec(0, budget, [])
    steps.sort(key=lambda s: (len(s.keep), s.keep, s.news))
    return steps


# ---------------------------------------------------------------------------
# Rotation-system brute force for small sphere graphs
# ---------------------------------------------------------------------------

def _oracle_faces(rot):
    index = {}
    for u, nbrs in enumerate(rot):
        for pos, v in enumerate(nbrs):
            index[(u, v)] = pos
    seen = set()
    faces = []
    for u in range(len(rot)):
        for v in rot[u]:
            d = (u, v)
            if d in seen:
                continue
            cyc = []
            cur = d
            while cur not in seen:
                seen.add(cur)
                cyc.append(cur)
                a, b = cur
                nbrs = rot[b]
                cur = (b, nbrs[(index[(b, a)] - 1) % len(nbrs)])
            faces.append(cyc)
    return faces


def _oracle_canon_cycle(cycle):
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def _oracle_encode(rot, start, mirror):
    label = {start[0]: 0}
    order = [start[0]]
    first_nbr = {start[0]: start[1]}
    rows = []
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        nbrs = rot[u]
        deg = len(nbrs)
        ai = nbrs.index(first_nbr[u])
        row = []
        for t in range(deg):
            v = nbrs[(ai - t if mirror else ai + t) % deg]
            if v not in label:
                label[v] = len(order)
                order.append(v)
                first_nbr[v] = u
            row.append(label[v])
        rows.append(str(deg) + ":" + ",".join(map(str, row)))
    return ";".join(rows), label


def reference_canonical_form(g) -> str:
    """graphgen.canonical_form as it was first written: for every start dart
    and orientation, relabel the rotation system, re-trace all of its faces
    and read each face's attribute at the original dart behind the face's
    least relabelled dart.  Slow (every face traced 4E times), kept as the
    exactness reference for the library's incremental version."""
    faces = [_oracle_canon_cycle(f) for f in _oracle_faces(g.rot)]
    dart_face = {d: fi for fi, f in enumerate(faces) for d in f}
    flags = ["M" if f in g.modifiable_faces else "U" for f in faces]
    best = None
    for u in range(len(g.rot)):
        for v in g.rot[u]:
            for mirror in (False, True):
                enc, label = _oracle_encode(g.rot, (u, v), mirror)
                inv = {new: old for old, new in label.items()}
                relabeled = []
                for new in range(len(g.rot)):
                    nbrs = [label[w] for w in g.rot[inv[new]]]
                    relabeled.append(nbrs[::-1] if mirror else nbrs)
                rel_faces = sorted(_oracle_canon_cycle(f) for f in _oracle_faces(relabeled))
                attr = "".join(flags[dart_face[(inv[f[0][0]], inv[f[0][1]])]]
                               for f in rel_faces)
                cand = enc + "|" + attr
                if best is None or cand < best:
                    best = cand
    return best


def _connected(adj, v):
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == v


def brute_force_sphere_classes(n_max: int) -> set[str]:
    """All isomorphism classes of simple sphere embeddings with <= n_max
    vertices whose faces are all simple polygons (>= 3 sides), built by
    direct enumeration of edge subsets and rotation systems.  Classes are
    keyed by graphgen.canonical_form on the all-unmodifiable decoration."""
    from itertools import combinations, permutations

    from rigorkit import graphgen as gg

    classes: set[str] = set()
    for v in range(3, n_max + 1):
        all_edges = list(combinations(range(v), 2))
        for ne in range(v, min(3 * v - 6, len(all_edges)) + 1):
            for edges in combinations(all_edges, ne):
                adj = [[] for _ in range(v)]
                for a, b in edges:
                    adj[a].append(b)
                    adj[b].append(a)
                if any(len(nbrs) < 2 for nbrs in adj):
                    continue
                if not _connected(adj, v):
                    continue
                # all cyclic orders: fix each vertex's first neighbour
                choice_lists = [
                    [(nbrs[0],) + p for p in permutations(nbrs[1:])]
                    for nbrs in adj
                ]

                def rec(i, rot):
                    if i == v:
                        faces = _oracle_faces(rot)
                        if v - ne + len(faces) != 2:
                            return
                        for f in faces:
                            if len(f) < 3:
                                return
                            verts = [d[0] for d in f]
                            if len(set(verts)) != len(verts):
                                return
                        g = gg.DecoratedGraph(tuple(rot), frozenset())
                        classes.add(gg.canonical_form(g))
                        return
                    for choice in choice_lists[i]:
                        rec(i + 1, rot + [choice])

                rec(0, [])
    return classes


# ---------------------------------------------------------------------------
# Assembly brute force
# ---------------------------------------------------------------------------

def assembly_grid_max(problem, points_per_domain: int = 10**6,
                      seed: int = 0) -> Optional[float]:
    """Best feasible objective found by dense random sampling (uniform in
    the domain boxes), feasibility-filtered by the nonlinear constraints
    and the global rows.  Returns None when no feasible sample exists."""
    rng = np.random.default_rng(seed)
    cols = []
    for d_idx, dom in enumerate(problem.domains):
        samples = np.empty((points_per_domain, dom.n))
        for s in range(dom.n):
            lo, hi = dom.box[s].lo, dom.box[s].hi
            samples[:, s] = rng.uniform(lo, hi, points_per_domain)
        keep = np.ones(points_per_domain, dtype=bool)
        for phi in dom.constraints:
            vals = evaluate_on_arrays(phi, [samples[:, s] for s in range(dom.n)])
            keep &= vals >= 0.0
        cols.append((dom, samples[keep]))
    # assemble global samples: independent per-domain draws, truncated to a
    # common count
    count = min(len(s) for _, s in cols)
    if count == 0:
        return None
    x = np.empty((count, problem.n))
    for d_idx, (_, samples) in enumerate(cols):
        x[:, problem.globals_of_domain(d_idx)] = samples[:count]
    keep = np.ones(count, dtype=bool)
    a = np.array(problem.a, dtype=float)
    b = np.array(problem.b, dtype=float)
    if len(a):
        keep &= (x @ a.T <= b + 1e-12).all(axis=1)
    if not keep.any():
        return None
    c = np.array(problem.c, dtype=float)
    return float((x[keep] @ c).max())
