"""Linear assembly problems: local nonlinear domains linked by global
linear constraints, with nonlinear-duality certificate fitting and
verification, and box branching.

The problem is  max c.x  subject to  A x <= b  and, per local domain D,
phi(x_D) >= 0 for every phi in Phi_D, with x_D ranging over a finite box.
The global variables x are the domains' variables in order, domain 0's
first, so x_D is a contiguous block of x.

A duality certificate (M, x*, r, w, t0) is *verified* by proving, for
every domain D over its whole box,

    E_D(x_D) = c_D.(x_D - x*_D) + sum_phi r_phi phi(x_D)
             + w A_D (x*_D - x_D) + t0  <=  0

with the subdivision prover, together with the interval-certified side
condition

    M + d t0 - c.x*  -  w.(b_R - A_R x*)  >=  0

over the retained (approximately binding) rows R.  Summing the proven
per-domain inequalities over a feasible x and using r, w >= 0, phi >= 0
and A x <= b telescopes into c.x <= M, so a Certified verdict is sound
regardless of where the candidate came from.  The residual term
w.(b_R - A_R x*) vanishes when x* binds the retained rows exactly; it is
kept because a floating-point x* binds only to tolerance.

Since equality may be attained at the optimizer, the per-domain proofs
are non-strict (prove_nonpositive); the resulting bound claim is
sup c.x <= M.

A fit compiles each domain's phis once into one FloatPlan, run at every
test point, and builds both fitting LPs from one row list; verification
computes the side condition's sums once per check.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, replace
from itertools import compress, count
from typing import Iterator, NamedTuple, Optional, Sequence

from . import interval as iv
from . import lp as lpmod
from . import records as rec
from .errors import IntervalError, NoProgress, ParseError
from .expr import (Expr, FloatPlan, Var, const_from_float, make_add, make_mul, make_sub,
                   parse, to_text)
from .interval import Interval, Pair
from .prover import ProofTask, ProverConfig, prove_nonpositive
from .taylor import Box

__all__ = [
    "LocalDomain",
    "AssemblyProblem",
    "DualityCertificate",
    "VerifyOutcome",
    "fit_dual",
    "verify_duality",
    "branch",
    "binding_rows",
    "mx_check_interval",
    "problem_to_text",
    "problem_from_text",
    "certificate_to_text",
    "certificate_from_text",
    "BINDING_TOLERANCE",
]

BINDING_TOLERANCE = 1e-8
# Bound on |t| and on every multiplier in the fitting LPs.
_MULTIPLIER_CAP = 1e6


@dataclass(frozen=True, slots=True)
class LocalDomain:
    """One nonlinear piece: named variables over a finite box, constrained
    by expressions interpreted as phi >= 0."""

    id: str
    var_names: tuple[str, ...]
    box: Box
    constraints: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.var_names) != len(self.box):
            raise ValueError(f"domain {self.id}: names/box arity mismatch")

    @property
    def n(self) -> int:
        return len(self.box)


@dataclass(frozen=True, slots=True)
class AssemblyProblem:
    """Domains plus the global linear layer.  Global variable j is the j-th
    of the domains' variables taken in order, domain 0's slots first."""

    domains: tuple[LocalDomain, ...]
    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    c: tuple[float, ...]

    def __post_init__(self):
        n = self.n
        if len(self.c) != n:
            raise ValueError("objective length must match the variable count")
        for row in self.a:
            if len(row) != n:
                raise ValueError("linear row length must match the variable count")
        if len(self.a) != len(self.b):
            raise ValueError("a/b length mismatch")

    @property
    def n(self) -> int:
        return sum(dom.n for dom in self.domains)

    def globals_of_domain(self, d_idx: int) -> range:
        """Global indices of a domain's variables, ordered by slot."""
        start = sum(dom.n for dom in self.domains[:d_idx])
        return range(start, start + self.domains[d_idx].n)


class DualityCertificate(NamedTuple):
    m_bound: float
    x_star: tuple[float, ...]
    r: tuple[tuple[float, ...], ...]
    w: tuple[float, ...]
    t0: float
    retained_rows: tuple[int, ...]
    # the fit's test points: _test_points(dom, test_seed, test_points) per domain
    test_seed: Optional[int] = None
    test_points: Optional[int] = None


class VerifyOutcome(NamedTuple):
    certified: bool
    domain_id: Optional[str] = None
    reason: str = ""


# ---------------------------------------------------------------------------
# Duality certificates
# ---------------------------------------------------------------------------

def _binds(p: AssemblyProblem, x_star: Sequence[float], k: int) -> bool:
    """|A_k x* - b_k| <= BINDING_TOLERANCE * (1 + |b_k|)."""
    resid = sum(p.a[k][j] * x_star[j] for j in range(p.n)) - p.b[k]
    return abs(resid) <= BINDING_TOLERANCE * (1.0 + abs(p.b[k]))


def binding_rows(p: AssemblyProblem, x_star: Sequence[float]) -> list[int]:
    """The rows x* binds (to BINDING_TOLERANCE)."""
    return [k for k in range(len(p.a)) if _binds(p, x_star, k)]


def _side_terms(p: AssemblyProblem, x_star: Sequence[float], w: Sequence[float],
                rows: Sequence[int]) -> tuple[Pair, Pair]:
    """Enclosures of c.x* and w.(b_R - A_R x*), skipping zero A entries:
    each b_k - A_k x* is b_k plus the products (-a_kj) * x_j."""
    obj = iv.add_products(p.c, x_star)
    retained = (0.0, 0.0)
    for w_k, k in zip(w, rows):
        row = p.a[k]
        resid = iv.add_products([-a for a in row if a != 0.0],
                                list(compress(x_star, row)), p.b[k], p.b[k])
        retained = iv.add(retained, iv.mul(Interval.point(w_k), resid))
    return obj, retained


def _side(p: AssemblyProblem, m_bound: float, t0: float, obj: Pair,
          retained: Pair) -> Pair:
    """Enclosure of M + d t0 - obj - retained."""
    total = iv.add(Interval.point(m_bound),
                   iv.mul(Interval.point(float(len(p.domains))), Interval.point(t0)))
    return iv.sub(iv.sub(total, obj), retained)


def mx_check_interval(p: AssemblyProblem, cert: DualityCertificate) -> Interval:
    """Enclosure of M + d t0 - c.x* - w.(b_R - A_R x*); certification
    requires its lower end to be >= 0."""
    obj, retained = _side_terms(p, cert.x_star, cert.w, cert.retained_rows)
    return Interval(*_side(p, cert.m_bound, cert.t0, obj, retained))


def _compute_t0(p: AssemblyProblem, m_bound: float, x_star: Sequence[float],
                w: Sequence[float], retained_rows: Sequence[int]) -> Optional[float]:
    """A t0 that provably passes the side condition, or None if the side's
    enclosure overflows first: an upward-rounded (-M + c.x* + w.(b_R -
    A_R x*))/d, raised by 128 one-ulp steps, then by doubling ones, since
    that enclosure's width scales with ulp(M) and w.residual, not ulp(t0).

    With an exactly binding x* the residual term vanishes and this reduces
    to the textbook substitution t0 = (-M + c.x*)/d."""
    obj, retained = _side_terms(p, x_star, w, retained_rows)
    num = iv.add(iv.sub(obj, Interval.point(m_bound)), retained)
    _, t0 = iv.div(num, Interval.point(float(len(p.domains))))
    step = 0.0
    with contextlib.suppress(IntervalError):
        for k in count():
            lo, _ = _side(p, m_bound, t0, obj, retained)
            if lo >= 0.0:
                return t0
            if k >= 128:
                step = 2.0 * step or iv.next_up(abs(t0)) - abs(t0)
            t0 = iv.next_up(t0 + step)
    return None


def _test_points(dom: LocalDomain, seed: int, n_random: int) -> Iterator[tuple[float, ...]]:
    """The box's corners (up to 12 variables), its center, then n_random
    uniform points drawn from Random(f"{seed}:{dom.id}")."""
    rng = random.Random(f"{seed}:{dom.id}")
    if dom.n <= 12:
        for mask in range(1 << dom.n):
            yield tuple(d.hi if (mask >> i) & 1 else d.lo for i, d in enumerate(dom.box))
    yield tuple(d.mid for d in dom.box)
    for _ in range(n_random):
        yield tuple(rng.uniform(d.lo, d.hi) for d in dom.box)


def fit_dual(p: AssemblyProblem, x_star: Sequence[float], m_bound: float,
             seed: int = 0, n_random: int = 16) -> Optional[DualityCertificate]:
    """Fit candidate multipliers on a finite test-point relaxation.

    Each domain's test points are _test_points(dom, seed, n_random); the
    certificate records seed as test_seed and n_random as test_points,
    which name the points fitted.
    Maximizes t subject to the per-test-point inequalities and the side
    condition, then (at the optimal t) minimizes the total multiplier mass
    so verification sees the smallest certificate.  Heuristic: the result
    carries no rigor claim until verify_duality certifies it.

    Returns None when the finite LP is infeasible or degenerate or no t0
    is found (callers should branch or enlarge the test set)."""
    if n_random < 0:
        raise ValueError("n_random must be >= 0")
    if len(x_star) != p.n:
        raise ValueError("x_star length mismatch")
    for g, comp in enumerate(comp for dom in p.domains for comp in dom.box):
        if not comp.contains(x_star[g]):
            raise ValueError(f"x_star[{g}] outside its domain box")

    retained = binding_rows(p, x_star)
    d_count = len(p.domains)
    # LP variables: [t] + [r_phi ...] + [w_k ...]; r_start[d] is domain d's
    # first r column, and r_start[-1] the first w column
    r_start = [1]
    for dom in p.domains:
        r_start.append(r_start[-1] + len(dom.constraints))
    w_start = r_start[-1]
    n_vars = w_start + len(retained)

    rows: list[list[float]] = []
    rhs: list[float] = []
    for d_idx, dom in enumerate(p.domains):
        gl = p.globals_of_domain(d_idx)
        xs_d = [x_star[g] for g in gl]
        c_d = [p.c[g] for g in gl]
        phis_at = FloatPlan(dom.constraints)
        for pt in _test_points(dom, seed, n_random):
            try:
                phis = phis_at(pt)
            except (ArithmeticError, ValueError):
                continue  # test point outside a phi's numeric domain
            row = [0.0] * n_vars
            row[0] = 1.0
            row[r_start[d_idx]:r_start[d_idx + 1]] = phis
            for i, k in enumerate(retained, w_start):
                grow = p.a[k]
                row[i] = sum(grow[g] * (xs_d[s] - pt[s]) for s, g in enumerate(gl))
            rows.append(row)
            rhs.append(-sum(c_d[s] * (pt[s] - xs_d[s]) for s in range(dom.n)))
    if not rows:
        return None
    # side condition: M + d t - c.x* >= 0   ->   -d t <= M - c.x*
    c_dot = sum(p.c[j] * x_star[j] for j in range(p.n))
    side = [0.0] * n_vars
    side[0] = -d_count
    rows.append(side)
    rhs.append(m_bound - c_dot)

    bounds = [Interval(-_MULTIPLIER_CAP, _MULTIPLIER_CAP)]
    bounds += [Interval(0.0, _MULTIPLIER_CAP)] * (n_vars - 1)
    stage1 = lpmod.make_problem([1.0] + [0.0] * (n_vars - 1), bounds,
                                aineq=rows, bineq=rhs)
    try:
        sol, _, t_opt = lpmod.solve_approx(stage1)
    except NoProgress:
        return None

    # Stage 2: hold t at its optimum, minimize total multiplier mass.
    hold = [-1.0] + [0.0] * (n_vars - 1)
    stage2 = lpmod.make_problem([0.0] + [-1.0] * (n_vars - 1), bounds,
                                aineq=rows + [hold], bineq=rhs + [-(t_opt - 1e-9)])
    with contextlib.suppress(NoProgress):
        sol, _, _ = lpmod.solve_approx(stage2)

    r_vals = tuple(tuple(max(0.0, v) for v in sol[r_start[d]:r_start[d + 1]])
                   for d in range(d_count))
    w_vals = tuple(max(0.0, v) for v in sol[w_start:])
    t0 = _compute_t0(p, m_bound, x_star, w_vals, retained)
    if t0 is None:
        return None
    return DualityCertificate(
        m_bound=float(m_bound),
        x_star=tuple(float(v) for v in x_star),
        r=r_vals,
        w=w_vals,
        t0=t0,
        retained_rows=tuple(retained),
        test_seed=seed,
        test_points=n_random,
    )


def _domain_inequality_expr(p: AssemblyProblem, cert: DualityCertificate,
                            d_idx: int) -> Expr:
    """E_D as an expression over the domain's slot variables, with every
    coefficient embedded exactly (binary64 -> decimal text)."""
    dom = p.domains[d_idx]
    gl = p.globals_of_domain(d_idx)
    e: Expr = const_from_float(cert.t0)
    for slot, g in enumerate(gl):
        if p.c[g] != 0.0:
            e = make_add(e, make_mul(
                const_from_float(p.c[g]),
                make_sub(Var(slot), const_from_float(cert.x_star[g]))))
    for c_idx, phi in enumerate(dom.constraints):
        e = make_add(e, make_mul(const_from_float(cert.r[d_idx][c_idx]), phi))
    for w_k, k in zip(cert.w, cert.retained_rows):
        if w_k == 0.0:
            continue
        row = p.a[k]
        inner: Expr = None
        for slot, g in enumerate(gl):
            if row[g] != 0.0:
                term = make_mul(const_from_float(row[g]),
                                make_sub(const_from_float(cert.x_star[g]), Var(slot)))
                inner = term if inner is None else make_add(inner, term)
        if inner is not None:
            e = make_add(e, make_mul(const_from_float(w_k), inner))
    return e


def verify_duality(p: AssemblyProblem, cert: DualityCertificate,
                   cfg: ProverConfig = ProverConfig()) -> VerifyOutcome:
    """Rigorously verify a duality certificate.

    Certified implies sup { c.x : x assembly-feasible } <= M, for the
    exact binary64 data stored in the problem and certificate."""
    if len(cert.x_star) != p.n:
        return VerifyOutcome(False, reason="x_star length mismatch")
    if len(cert.r) != len(p.domains) or any(
            len(rd) != len(dom.constraints)
            for rd, dom in zip(cert.r, p.domains)):
        return VerifyOutcome(False, reason="r shape mismatch")
    if len(cert.w) != len(cert.retained_rows):
        return VerifyOutcome(False, reason="w/retained length mismatch")
    if any(v < 0.0 for rd in cert.r for v in rd) or any(v < 0.0 for v in cert.w):
        return VerifyOutcome(False, reason="negative multiplier")
    for k in cert.retained_rows:
        if not (0 <= k < len(p.a)):
            return VerifyOutcome(False, reason=f"retained row {k} out of range")
        if not _binds(p, cert.x_star, k):
            return VerifyOutcome(
                False, reason=f"retained row {k} not binding at x*")

    side = mx_check_interval(p, cert)
    if not (side.lo >= 0.0):
        return VerifyOutcome(
            False,
            reason=f"side condition not certified (enclosure [{side.lo}, {side.hi}])")

    for d_idx, dom in enumerate(p.domains):
        e = _domain_inequality_expr(p, cert, d_idx)
        report = prove_nonpositive(ProofTask(e, dom.box, 0.0), cfg)
        if not report.proven:
            return VerifyOutcome(False, domain_id=dom.id,
                                 reason="domain inequality not certified")
    return VerifyOutcome(True)


def branch(p: AssemblyProblem, domain_id: str, slot: int) -> tuple[AssemblyProblem, AssemblyProblem]:
    """Bisect one domain box component.  Certifying a bound M on both
    children certifies M on the parent."""
    d_idx = next((i for i, d in enumerate(p.domains) if d.id == domain_id), None)
    if d_idx is None:
        raise ValueError(f"no domain {domain_id!r}")
    dom = p.domains[d_idx]
    if not 0 <= slot < dom.n:
        raise ValueError(f"domain {domain_id} has no slot {slot} (slots 0..{dom.n - 1})")
    comp = dom.box[slot]
    if comp.lo == comp.hi:
        raise ValueError(f"domain {domain_id} slot {slot} is degenerate")
    lo_box, hi_box = dom.box.split(slot)

    def with_box(box: Box) -> AssemblyProblem:
        domains = list(p.domains)
        domains[d_idx] = replace(dom, box=box)
        return replace(p, domains=tuple(domains))

    return with_box(lo_box), with_box(hi_box)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def problem_to_text(p: AssemblyProblem) -> str:
    lines = ["assembly-problem v1"]
    for dom in p.domains:
        lines.append(f"domain {dom.id}")
        lines.append("  vars " + " ".join(dom.var_names))
        lines.append("  box " + " ".join(
            iv.format_interval_literal(d) for d in dom.box))
        for phi in dom.constraints:
            lines.append("  phi " + to_text(phi))
        lines.append("end")
    names = [f"{dom.id}.{name}" for dom in p.domains for name in dom.var_names]
    for k, row in enumerate(p.a):
        for j, v in enumerate(row):
            if v != 0.0:
                lines.append(f"row {k} {names[j]} {v!r}")
        lines.append(f"rhs {k} {p.b[k]!r}")
    for j, v in enumerate(p.c):
        if v != 0.0:
            lines.append(f"obj {names[j]} {v!r}")
    return "\n".join(lines) + "\n"


_PROBLEM_FIELDS = {
    "domain": (str,), "vars": [str], "box": [rec.interval],
    "phi": rec.TEXT, "end": (), "row": (rec.index, str, rec.decimal),
    "rhs": (rec.index, rec.decimal), "obj": (str, rec.decimal),
}


def problem_from_text(text: str) -> AssemblyProblem:
    records = rec.read_records(text, _PROBLEM_FIELDS, header="assembly-problem")
    domains: list[LocalDomain] = []
    names: dict[str, int] = {}  # "domain.var" -> global variable index
    block: Optional[dict] = None  # the open domain block
    for r in records:
        kw, v = r.keyword, r.values
        if kw == "domain" and block is not None:
            raise r.error("nested domain block")
        if kw in ("vars", "box", "phi", "end") and block is None:
            raise r.error(f"{kw!r} outside a domain block")
        if kw == "domain":
            block = {"id": v[0], "vars": (), "box": (), "phi": []}
        elif kw in ("vars", "box"):
            block[kw] = v
        elif kw == "phi":
            arity = len(block["vars"])
            block["phi"].append(rec.convert(r.line, lambda t: parse(t, arity=arity), v[0]))
        elif kw == "end":
            if not block["vars"]:
                raise r.error(f"domain {block['id']!r} has no vars")
            try:
                dom = LocalDomain(block["id"], block["vars"], Box(block["box"]),
                                  tuple(block["phi"]))
            except (ValueError, IntervalError) as exc:
                raise r.error(str(exc)) from None
            for vname in dom.var_names:
                if f"{dom.id}.{vname}" in names:
                    raise r.error(f"variable {dom.id}.{vname} defined twice")
                names[f"{dom.id}.{vname}"] = len(names)
            domains.append(dom)
            block = None
        elif kw in ("row", "obj") and v[-2] not in names:
            raise r.error(f"unknown variable {v[-2]!r}")
    if block is not None:
        raise ParseError("unterminated domain block")
    rows = rec.table(records, "row")
    entries = ([k for k, _ in rows], [names[name] for _, name in rows], rows.values())
    a, b = rec.dense_rows(entries, rec.table(records, "rhs"), len(names),
                          ((r.line, r.values[0]) for r in records if r.keyword in ("row", "rhs")))
    obj = {names[name]: v for name, v in rec.table(records, "obj").items()}
    return AssemblyProblem(tuple(domains), tuple(tuple(row) for row in a),
                           tuple(b), tuple(obj.get(g, 0.0) for g in range(len(names))))


def certificate_to_text(p: AssemblyProblem, cert: DualityCertificate) -> str:
    lines = ["duality-certificate v1",
             f"M {cert.m_bound!r}",
             f"t0 {cert.t0!r}"]
    for j, v in enumerate(cert.x_star):
        lines.append(f"x_star {j} {v!r}")
    for d_idx, dom in enumerate(p.domains):
        for c_idx, v in enumerate(cert.r[d_idx]):
            lines.append(f"r {dom.id} {c_idx} {v!r}")
    for w_k, k in zip(cert.w, cert.retained_rows):
        lines.append(f"w {k} {w_k!r}")
    if cert.retained_rows:
        lines.append("retained " + " ".join(str(k) for k in cert.retained_rows))
    if cert.test_seed is not None:
        lines.append(f"seed {cert.test_seed}")
    if cert.test_points is not None:
        lines.append(f"test_points {cert.test_points}")
    return "\n".join(lines) + "\n"


_CERTIFICATE_FIELDS = {
    "m": (rec.decimal,), "t0": (rec.decimal,), "x_star": (rec.index, rec.decimal),
    "r": (str, rec.index, rec.decimal), "w": (rec.index, rec.decimal),
    "retained": [rec.index], "seed": (int,), "test_points": (rec.index,),
}


def certificate_from_text(p: AssemblyProblem, text: str) -> DualityCertificate:
    records = rec.read_records(text, _CERTIFICATE_FIELDS, header="duality-certificate")
    n_constraints = {dom.id: len(dom.constraints) for dom in p.domains}
    last = {r.keyword: r.values for r in records}
    retained = last.get("retained", ())
    for r in records:
        if r.keyword == "x_star" and r.values[0] >= p.n:
            raise r.error(f"variable {r.values[0]} out of range for {p.n} variables")
        if r.keyword == "r" and r.values[1] >= n_constraints.get(r.values[0], 0):
            raise r.error(f"domain {r.values[0]!r} has no constraint {r.values[1]}")
        if r.keyword == "w" and r.values[0] not in retained:
            raise r.error(f"w names row {r.values[0]}, which is not retained")
        if r.keyword == "retained" and len(set(r.values)) != len(r.values):
            raise r.error("retained names a row twice")
    if "m" not in last or "t0" not in last:
        raise ParseError("certificate missing M or t0")
    x_star, r_entries, w = (rec.table(records, kw) for kw in ("x_star", "r", "w"))
    return DualityCertificate(
        m_bound=last["m"][0],
        x_star=tuple(x_star.get(j, 0.0) for j in range(p.n)),
        r=tuple(tuple(r_entries.get((dom.id, c_idx), 0.0)
                      for c_idx in range(len(dom.constraints)))
                for dom in p.domains),
        w=tuple(w.get(k, 0.0) for k in retained),
        t0=last["t0"][0],
        retained_rows=retained,
        test_seed=last["seed"][0] if "seed" in last else None,
        test_points=last["test_points"][0] if "test_points" in last else None,
    )
