import math
import random

import pytest

from oracles import assembly_grid_max, reference_add_products, reference_test_points
from rigorkit import assembly as asm
from rigorkit import cli
from rigorkit import interval as iv
from rigorkit.errors import NonFiniteOperand
from rigorkit.expr import parse
from rigorkit.interval import Interval
from rigorkit.prover import ProverConfig
from rigorkit.taylor import Box

I = Interval


def toy_problem():
    dom = asm.LocalDomain("d0", ("x",), Box((I(0, 1),)), (parse("x0 - x0*x0", 1),))
    return asm.AssemblyProblem((dom,), ((1.0,),), (1.0,), (1.0,))


def two_domain_problem():
    # maximize x + y with x on d1, y on d2, phi: x(1-x) >= 0, y(1-y) >= 0,
    # linking equality x = y encoded as two inequality rows, plus x + y <= 1.2
    d1 = asm.LocalDomain("d1", ("x",), Box((I(0, 1),)), (parse("x0 - x0*x0", 1),))
    d2 = asm.LocalDomain("d2", ("y",), Box((I(0, 1),)), (parse("x0 - x0*x0", 1),))
    a = ((1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))
    b = (0.0, 0.0, 1.2)
    return asm.AssemblyProblem((d1, d2), a, b, (1.0, 1.0))


def test_toy_certifies_m1_and_refutes_m09():
    p = toy_problem()
    cert = asm.fit_dual(p, [1.0], 1.0, seed=3)
    assert cert is not None
    out = asm.verify_duality(p, cert)
    assert out.certified

    # hand-checkable certificate: r = 0, w from the row x <= 1
    hand = asm.DualityCertificate(1.0, (1.0,), ((0.0,),), (1.0,), 0.0, (0,))
    assert asm.verify_duality(p, hand).certified

    # M = 0.9 < sup: either no candidate or a refuted one
    cert9 = asm.fit_dual(p, [1.0], 0.9, seed=3)
    if cert9 is not None:
        assert not asm.verify_duality(p, cert9, ProverConfig(max_cells=500)).certified
    forced = asm.DualityCertificate(0.9, (1.0,), ((0.0,),), (1.0,), 0.1, (0,))
    out9 = asm.verify_duality(p, forced, ProverConfig(max_cells=500))
    assert not out9.certified


def test_side_condition_guards_low_t0():
    p = toy_problem()
    # t0 too low: the side condition fails even though domains verify
    bad = asm.DualityCertificate(1.0, (1.0,), ((0.0,),), (1.0,), -0.5, (0,))
    out = asm.verify_duality(p, bad)
    assert not out.certified and "side condition" in out.reason


def test_negative_multiplier_rejected():
    p = toy_problem()
    bad = asm.DualityCertificate(1.0, (1.0,), ((-0.1,),), (1.0,), 0.0, (0,))
    assert not asm.verify_duality(p, bad).certified


@pytest.mark.parametrize("change, reason", [
    ({"x_star": (1.0, 1.0)}, "x_star length mismatch"),
    ({"r": ()}, "r shape mismatch"),
    ({"r": ((0.0, 0.0),)}, "r shape mismatch"),
    ({"w": ()}, "w/retained length mismatch"),
    ({"w": (1.0, 1.0), "retained_rows": (0, 1)}, "retained row 1 out of range"),
    ({"retained_rows": (-1,)}, "retained row -1 out of range"),
])
def test_malformed_certificate_is_refused(change, reason):
    p = toy_problem()
    good = asm.DualityCertificate(1.0, (1.0,), ((0.0,),), (1.0,), 0.0, (0,))
    assert asm.verify_duality(p, good).certified
    assert asm.verify_duality(p, good._replace(**change)) == asm.VerifyOutcome(
        False, reason=reason)


def test_fit_refuses_an_x_star_it_cannot_fit_at():
    p = toy_problem()
    with pytest.raises(ValueError, match="^x_star length mismatch$"):
        asm.fit_dual(p, (0.5, 0.5), 1.0)
    with pytest.raises(ValueError, match=r"^x_star\[0\] outside its domain box$"):
        asm.fit_dual(p, (1.5,), 1.0)


def test_not_binding_rows_rejected():
    p = toy_problem()
    bad = asm.DualityCertificate(1.5, (0.5,), ((0.0,),), (1.0,), 0.0, (0,))
    out = asm.verify_duality(p, bad)
    assert not out.certified and "not binding" in out.reason
    # a residual that is NaN (inf - inf) binds no row
    p2 = two_domain_problem()
    nan_resid = asm.DualityCertificate(1.2, (math.inf, math.inf), ((0.0,), (0.0,)),
                                       (1.0,), 0.0, (0,))
    assert asm.binding_rows(p2, nan_resid.x_star) == []
    out = asm.verify_duality(p2, nan_resid)
    assert not out.certified and "not binding" in out.reason


def test_two_domain_linking():
    p = two_domain_problem()
    # true optimum: x = y, x + y <= 1.2 -> x = 0.6, objective 1.2.
    # M sits a margin above it; exactly-touching certificates are for
    # branching, not single-shot verification.
    x_star = [0.6, 0.6]
    m_bound = 1.25
    cert = asm.fit_dual(p, x_star, m_bound, seed=5)
    assert cert is not None
    out = asm.verify_duality(p, cert)
    assert out.certified, out.reason
    # the feasible set is the diagonal x = y; scan it densely
    brute = max(2 * (0.6 * k / 20000) for k in range(20001)
                if 2 * (0.6 * k / 20000) <= 1.2)
    assert brute <= m_bound + 1e-9

    # w applied with the correct sign verifies; the same mass moved to the
    # opposite-signed matching row is refuted
    good = asm.DualityCertificate(m_bound, (0.6, 0.6), ((0.0,), (0.0,)),
                                  (0.0, 0.0, 1.0), -0.025, (0, 1, 2))
    assert asm.verify_duality(p, good).certified
    flipped = asm.DualityCertificate(m_bound, (0.6, 0.6), ((0.0,), (0.0,)),
                                     (1.0, 0.0, 1.0), -0.025, (0, 1, 2))
    out_flip = asm.verify_duality(p, flipped, ProverConfig(max_cells=500))
    assert not out_flip.certified


def test_branch_examples():
    p = toy_problem()
    lo, hi = asm.branch(p, "d0", 0)
    assert lo.domains[0].box[0] == I(0, 0.5)
    assert hi.domains[0].box[0] == I(0.5, 1)

    degenerate = asm.AssemblyProblem(
        (asm.LocalDomain("d", ("x",), Box((I(1, 1),)), ()),), (), (), (1.0,))
    with pytest.raises(ValueError, match="^domain d slot 0 is degenerate$"):
        asm.branch(degenerate, "d", 0)

    # 10-level recursion tiles the box exactly
    leaves = [p]
    for _ in range(10):
        leaves = [child for q in leaves for child in asm.branch(q, "d0", 0)]
    assert len(leaves) == 1024
    total = sum(math.prod(d.width for d in q.domains[0].box) for q in leaves)
    assert abs(total - 1.0) < 1e-12

    # certifying both children certifies the parent (sup of a union)
    l_res, h_res = asm.branch(p, "d0", 0)
    for child in (l_res, h_res):
        cert = asm.fit_dual(child, [child.domains[0].box[0].hi], 1.0, seed=9)
        assert cert is not None and asm.verify_duality(child, cert).certified


def test_test_points_are_the_reference_draws():
    # each domain draws its corners, centre and random points from
    # Random(f"{seed}:{id}") in the reference's order; a 13-variable domain
    # gets no corners
    wide = asm.LocalDomain("wide", tuple(f"v{i}" for i in range(13)),
                           Box((I(-1, 2),) * 13), ())
    p = asm.AssemblyProblem(two_domain_problem().domains + (wide,), (), (), (0.0,) * 15)
    for seed, n_random in ((0, 16), (7, 0), (20260808, 5)):
        want = reference_test_points(p, seed=seed, n_random=n_random)
        assert [list(asm._test_points(d, seed, n_random)) for d in p.domains] == want
        assert [len(pts) for pts in want] == [3 + n_random, 3 + n_random, 1 + n_random]


def test_fit_records_the_seed_it_drew_from():
    p = toy_problem()
    for seed in (0, 3, 20260808):
        cert = asm.fit_dual(p, [1.0], 1.0, seed=seed)
        assert (cert.test_seed, cert.test_points) == (seed, 16)
        assert {f"seed {seed}", "test_points 16"} <= set(asm.certificate_to_text(p, cert).splitlines())
    with pytest.raises(ValueError, match="n_random must be >= 0"):
        asm.fit_dual(p, [2.0], 1.0, n_random=-1)


def test_assembly_without_linking_rows():
    # pure nonlinear case: no global rows at all, bound from phi alone
    dom = asm.LocalDomain("solo", ("x",), Box((I(0, 2),)),
                          (parse("1 - x0*x0", 1),))  # feasible set [0, 1]
    p = asm.AssemblyProblem((dom,), (), (), (1.0,))
    cert = asm.fit_dual(p, [1.0], 1.25, seed=4)
    assert cert is not None and cert.retained_rows == ()
    assert asm.verify_duality(p, cert).certified
    brute = assembly_grid_max(p, points_per_domain=20000, seed=2)
    assert brute is not None and brute <= 1.25


def test_t0_search_crosses_any_gap_then_gives_up(monkeypatch):
    # after 128 one-ulp steps the step doubles, so t0 crosses a gap far
    # above ulp(t0) (here from 0 to 1); a side that never passes ends the
    # search with no t0 once t0 overflows, and fit with no candidate
    seen = []

    def reaches_one(p, m_bound, t0, obj, retained):
        seen.append(t0)
        return iv.sub(Interval.point(t0), Interval.point(1.0))

    def never_passes(p, m_bound, t0, obj, retained):
        seen.append(t0)
        return iv.sub(Interval.point(-1.0), Interval.point(t0))

    p = toy_problem()
    monkeypatch.setattr(asm, "_side", reaches_one)
    assert 1.0 <= asm._compute_t0(p, 1.0, [1.0], [], [0]) < 2.1
    assert seen[0] == 0.0 and seen[128] == 128 * 5e-324
    seen.clear()
    monkeypatch.setattr(asm, "_side", never_passes)
    assert asm._compute_t0(p, 1.0, [1.0], [], [0]) is None
    assert seen[-1] == math.inf and len(seen) < 128 + 2100
    assert asm.fit_dual(p, [1.0], 1.0, seed=3) is None


def test_many_constraints_verify_through_the_cli(tmp_path, capsys):
    # E_D is a left-deep sum with one term per constraint, so 600
    # constraints make it over 600 plan levels deep
    phis = tuple(parse(f"1 - x0*{1 + i / 1000!r}", 1) for i in range(600))
    dom = asm.LocalDomain("d0", ("x",), Box((I(0, 0.5),)), phis)
    p = asm.AssemblyProblem((dom,), (), (), (1.0,))
    t0 = asm._compute_t0(p, 0.6, [0.5], [], [])
    cert = asm.DualityCertificate(0.6, (0.5,), ((1e-6,) * 600,), (), t0, ())
    problem, certificate = tmp_path / "many.asm", tmp_path / "many.cert"
    problem.write_text(asm.problem_to_text(p))
    certificate.write_text(asm.certificate_to_text(p, cert))
    code = cli.dispatch(["assemble", "verify", "--problem", str(problem),
                         "--certificate", str(certificate)])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert ("certified", "True") in cli.parse_report(out.out)[1]


def test_fit_linear_domain_recovers_dual_structure():
    # single domain, linear objective, no nonlinear constraints: the fit
    # at the true argmax needs no phi multipliers, and the hand-built
    # certificate with w = 1 on the binding row (the LP dual) verifies
    dom = asm.LocalDomain("lin", ("x",), Box((I(0, 1),)), ())
    p = asm.AssemblyProblem((dom,), ((1.0,),), (1.0,), (1.0,))
    cand = asm.fit_dual(p, [1.0], 1.0, seed=2)
    assert cand is not None
    assert all(not rd for rd in cand.r) or all(v == 0.0 for rd in cand.r for v in rd)
    assert asm.verify_duality(p, cand).certified
    lp_dual_style = asm.DualityCertificate(1.0, (1.0,), ((),), (1.0,), 0.0, (0,))
    assert asm.verify_duality(p, lp_dual_style).certified


def test_binding_rows():
    p = two_domain_problem()
    rows = asm.binding_rows(p, [0.6, 0.6])
    assert rows == [0, 1, 2]
    rows2 = asm.binding_rows(p, [0.3, 0.3])
    assert rows2 == [0, 1]


def _reference_mx_check(p, cert):
    """mx_check_interval as an interval chain: c.x* and each retained
    b_k - A_k x* through reference_add_products, the latter over the
    nonzero a_kj, then iv.add, iv.mul and iv.sub as _side does it."""
    point = Interval.point
    obj = I(*reference_add_products(p.c, cert.x_star))
    retained = point(0.0)
    for w_k, k in zip(cert.w, cert.retained_rows):
        live = [(a, x) for a, x in zip(p.a[k], cert.x_star) if a != 0.0]
        resid = I(*reference_add_products([-a for a, _ in live], [x for _, x in live],
                                          p.b[k], p.b[k]))
        retained = iv.add(retained, iv.mul(point(w_k), resid))
    total = iv.add(point(cert.m_bound), iv.mul(point(float(len(p.domains))), point(cert.t0)))
    return I(*iv.sub(iv.sub(total, obj), retained))


def _endpoints_or_message(fn):
    try:
        r = fn()
    except NonFiniteOperand as exc:
        return str(exc)
    return r.lo.hex(), r.hi.hex()


def test_mx_check_interval_matches_the_interval_chain():
    rng = random.Random(968)

    def draw(regime):
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice((0.0, -0.0))
        if kind == 1 or regime == "plain":
            return rng.uniform(-4.0, 4.0)
        if regime == "huge" or (regime == "mixed" and kind == 2):
            return math.ldexp(rng.uniform(-2.0, 2.0), rng.randint(990, 1022))
        return math.ldexp(rng.uniform(-2.0, 2.0), rng.randint(-1074, -969))

    raised = finished = 0
    for trial in range(400):
        regime = ("plain", "huge", "tiny", "mixed")[trial % 4]
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        domains = tuple(asm.LocalDomain(f"d{i}", tuple(f"v{k}" for k in range(k_n)),
                                        Box((I(-1, 1),) * k_n), ())
                        for i, k_n in enumerate(sizes))
        n, m = sum(sizes), rng.randint(0, 4)
        p = asm.AssemblyProblem(domains, tuple(tuple(draw(regime) for _ in range(n))
                                               for _ in range(m)),
                                tuple(draw(regime) for _ in range(m)),
                                tuple(draw(regime) for _ in range(n)))
        rows = tuple(sorted(rng.sample(range(m), rng.randint(0, m))))
        cert = asm.DualityCertificate(draw(regime), tuple(draw(regime) for _ in range(n)),
                                      tuple(() for _ in sizes),
                                      tuple(abs(draw(regime)) for _ in rows),
                                      draw(regime), rows)
        got = _endpoints_or_message(lambda: asm.mx_check_interval(p, cert))
        want = _endpoints_or_message(lambda: _reference_mx_check(p, cert))
        assert got == want, (trial, p, cert)
        raised += isinstance(want, str)
        finished += not isinstance(want, str)
    assert raised >= 20 and finished >= 200


def test_file_round_trips():
    p = two_domain_problem()
    text = asm.problem_to_text(p)
    assert asm.problem_from_text(text) == p
    cert = asm.fit_dual(p, [0.6, 0.6], 1.2, seed=5)
    ct = asm.certificate_to_text(p, cert)
    assert asm.certificate_from_text(p, ct) == cert


def test_random_ensemble_soundness_small():
    rng = random.Random(2026)
    certified = 0
    for trial in range(12):
        p, _ = random_assembly(rng)
        x_star, m_bound = pick_guess_and_bound(p, rng)
        if x_star is None:
            continue
        cert = asm.fit_dual(p, x_star, m_bound, seed=trial, n_random=12)
        if cert is None:
            continue
        out = asm.verify_duality(p, cert, ProverConfig(max_cells=4000))
        if not out.certified:
            continue
        certified += 1
        brute = assembly_grid_max(p, points_per_domain=50000, seed=trial)
        if brute is not None:
            assert brute <= m_bound + 1e-9 * (1 + abs(m_bound))
    assert certified >= 4


def random_assembly(rng):
    """Small random assembly: 1-2 domains, 1-3 vars each, polynomial
    constraints with phi(x) >= 0 somewhere on the box."""
    from oracles import random_expr
    from rigorkit import expr as ex

    n_domains = rng.randint(1, 2)
    domains = []
    for d_idx in range(n_domains):
        nv = rng.randint(1, 3)
        box = Box(tuple(I(0.0, rng.choice([0.5, 1.0])) for _ in range(nv)))
        phis = []
        for _ in range(rng.randint(0, 2)):
            e = random_expr(rng, nv, 3, polynomial=True)
            # shift so the box center satisfies phi >= 0
            center = [box[i].mid for i in range(nv)]
            val = ex.FloatPlan((e,))(center)[0]
            phis.append(ex.make_sub(e, ex.const_from_float(val - 0.25)))
        domains.append(asm.LocalDomain(f"d{d_idx}", tuple(f"v{k}" for k in range(nv)),
                                       box, tuple(phis)))
    n = sum(dom.n for dom in domains)
    rows = []
    rhs = []
    for _ in range(rng.randint(1, 3)):
        row = [rng.choice([0.0, 0.5, 1.0, -0.5]) for _ in range(n)]
        rows.append(tuple(row))
        rhs.append(rng.choice([0.5, 1.0, 1.5]))
    c = [rng.choice([1.0, 0.5, -0.5]) for _ in range(n)]
    p = asm.AssemblyProblem(tuple(domains), tuple(rows), tuple(rhs), tuple(c))
    return p, None


def pick_guess_and_bound(p, rng, samples=4000):
    """Feasible sample with the best objective plus a generous margin."""
    from rigorkit import expr as ex

    best = None
    best_x = None
    constraints = [[ex.FloatPlan((phi,)) for phi in dom.constraints] for dom in p.domains]
    for _ in range(samples):
        x = []
        for d_idx, dom in enumerate(p.domains):
            x += [rng.uniform(dom.box[s].lo, dom.box[s].hi) for s in range(dom.n)]
        ok = True
        for d_idx, dom in enumerate(p.domains):
            pt = [x[g] for g in p.globals_of_domain(d_idx)]
            for phi in constraints[d_idx]:
                if phi(pt)[0] < 0.0:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if any(sum(r * v for r, v in zip(row, x)) > b
               for row, b in zip(p.a, p.b)):
            continue
        obj = sum(cv * v for cv, v in zip(p.c, x))
        if best is None or obj > best:
            best = obj
            best_x = x
    if best is None:
        return None, None
    return best_x, best + 0.1 * (1 + abs(best))
