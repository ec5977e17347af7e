import hashlib
import math
import random
import struct
from fractions import Fraction

import pytest

import oracles
from oracles import exact_lp_optimum, reference_certify
from rigorkit import lp
from rigorkit.errors import NonFiniteOperand, ParseError
from rigorkit.interval import Interval

I = Interval


def toy_max_x():
    # max x subject to x <= 1, x in [0, 2]
    return lp.make_problem([1.0], [I(0, 2)], aineq=[[1.0]], bineq=[1.0])


def random_problem(rng, n_max=20, m_max=20, with_eq=False):
    """Random feasible-and-bounded LP with dyadic data: bounds [0, ub],
    and the witness point x_hat below every constraint."""
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    c = [rng.randint(-8, 8) / 4 for _ in range(n)]
    a = [[rng.randint(-8, 8) / 4 for _ in range(n)] for _ in range(m)]
    ub = [rng.randint(1, 16) / 2 for _ in range(n)]
    x_hat = [rng.randint(0, 4) / 8 * u for u in ub]
    b = [sum(r * x for r, x in zip(row, x_hat)) + rng.randint(0, 16) / 4
         for row in a]
    aeq, beq = [], []
    if with_eq and n >= 2:
        for _ in range(rng.randint(1, min(3, n - 1))):
            row = [rng.randint(-4, 4) / 4 for _ in range(n)]
            aeq.append(row)
            beq.append(sum(r * x for r, x in zip(row, x_hat)))
    return lp.make_problem(c, [I(0, u) for u in ub], aineq=a, bineq=b,
                           aeq=aeq, beq=beq)


def _certified(cert):
    return cert.bound, cert.delta_bound, cert.residual, cert.inputs_digest


def test_certify_zeroes_negative_z_as_its_zeroed_twin():
    # a negative z entry certifies exactly as its zeroed twin does, clamped
    p = toy_max_x()
    for z, twin in (([0.5, -1e-9, 0.0], [0.5, 0.0, 0.0]),
                    ([-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]),
                    ((1.0, -2.0, -1e-300), (1.0, 0.0, 0.0))):
        got, want = lp.certify_upper_bound(p, [], z), lp.certify_upper_bound(p, [], twin)
        assert got.clamped and not want.clamped
        assert _certified(got) == _certified(want)
    # -0.0 is not negative: it passes unchanged, and the digest tells it from +0.0
    signed = lp.certify_upper_bound(p, [], [1.0, -0.0, 0.0])
    assert not signed.clamped
    assert signed.inputs_digest != lp.certify_upper_bound(p, [], [1.0, 0.0, 0.0]).inputs_digest
    # y stays free
    q = lp.make_problem([1.0, -0.5], [I(0, 2), I(-1, 1)], aeq=[[0.5, 0.5]], beq=[0.25])
    assert not lp.certify_upper_bound(q, [-4.0], [0.0] * 4).clamped


def test_certify_examples():
    p = toy_max_x()
    cert = lp.certify_upper_bound(p, [], [1.0, 0.0, 0.0])
    assert abs(cert.bound - 1.0) <= 4e-16

    cert2 = lp.certify_upper_bound(p, [], [0.999, 0.0, 0.0])
    assert 1.0 <= cert2.bound <= 1.0011
    assert cert2.delta_bound <= 0.002 + 1e-12

    p2 = lp.make_problem([1.0, 1.0], [I(0, 2), I(0, 2)],
                         aineq=[[1.0, 0.0], [0.0, 1.0]], bineq=[1.0, 1.0])
    cert3 = lp.certify_upper_bound(p2, [], [1.0, 1.0, 0, 0, 0, 0])
    assert abs(cert3.bound - 2.0) <= 8e-16


def test_certify_rejects_bad_dims():
    p = toy_max_x()
    with pytest.raises(ValueError):
        lp.certify_upper_bound(p, (), (1.0,))


def test_augment_examples():
    p = toy_max_x()
    pa = lp.augment_with_t(p, 0.5)
    opt, x = exact_lp_optimum(pa)
    assert opt == 1 and x[-1] == 0

    pa5 = lp.augment_with_t(p, 5.0)
    opt5, x5 = exact_lp_optimum(pa5)
    assert opt5 == 5 and x5[-1] == 1 and x5[0] == 0

    # x's bounds become rows scaled by 1 - t, x + 2t <= 2 and -x - 0t <= -0,
    # after the given row; t's own 0 <= t <= 1 is a bound
    assert pa.aineq == ((1.0, 1.0), (1.0, 2.0), (-1.0, -0.0))
    assert pa.bineq == (1.0, 2.0, -0.0)
    assert pa.var_bounds[-1] == I(0, 1)

    shifted = lp.make_problem([1.0], [I(1, 2)], aineq=[[1.0]], bineq=[1.5])
    with pytest.raises(ValueError, match=r"^variable x0 bounds \[1.0, 2.0\] exclude 0"):
        lp.augment_with_t(shifted, 0.5)


def test_solve_approx():
    p = toy_max_x()
    x, (y, z), obj = lp.solve_approx(p)
    assert abs(obj - 1.0) < 1e-9 and abs(x[0] - 1.0) < 1e-9
    assert abs(z[0] - 1.0) < 1e-9

    p2 = lp.make_problem([1.0, 1.0], [I(0, 1), I(0, 1)],
                         aineq=[[1.0, 1.0]], bineq=[1.0])
    _, _, obj2 = lp.solve_approx(p2)
    assert abs(obj2 - 1.0) < 1e-9


def _positive(vec):
    # math.copysign tells -0.0 from 0.0
    return all(math.copysign(1.0, v) == 1.0 for v in vec)


def test_solver_bound_multipliers_keep_the_z_layout():
    # HiGHS gets the bounds as bounds; z still lists the rows' multipliers,
    # then x_j <= hi_j's and -x_j <= -lo_j's for each j, every zero +0.0
    _, (y, z), _ = lp.solve_approx(toy_max_x())
    assert y == () and z == (1.0, 0.0, 0.0) and _positive(z)
    rowless = lp.problem_from_text(
        "vars 2\nobj 0 1\nobj 1 -0.5\nbound 0 0..1\nbound 1 -1..2\n")
    _, (y, z), obj = lp.solve_approx(rowless)
    assert y == () and z == (1.0, 0.0, 0.0, 0.5) and _positive(z) and obj == 1.5
    assert lp.certify_upper_bound(rowless, y, z).bound == 1.5


def test_solver_duals_certify_optima_pinned_on_bounds():
    # few rows, so most variables sit on a bound at the optimum and z's
    # bound multipliers carry the bound; and one K-t augmented problem,
    # pinned on t's bound
    rng = random.Random(1818)
    problems = [random_problem(rng, n_max=10, m_max=4, with_eq=(k % 2 == 1)) for k in range(16)]
    problems.append(lp.augment_with_t(random_problem(rng, n_max=6, m_max=6, with_eq=True), 0.5))
    gaps, pinned = [], 0
    for p in problems:
        _, (y, z), _ = lp.solve_approx(p)
        assert len(z) == p.m_ineq and _positive(z)
        pinned += any(v > 0.0 for v in z[len(p.bineq):])
        opt, _ = exact_lp_optimum(p)
        cert = lp.certify_upper_bound(p, y, z)
        assert Fraction(cert.bound) >= opt
        gaps.append(float(Fraction(cert.bound) - opt))
    assert pinned >= len(problems) - 2
    assert sorted(gaps)[len(gaps) // 2] <= 1e-6


def test_certificate_soundness_and_fuzz_small_batch():
    rng = random.Random(909)
    gaps = []
    for trial in range(40):
        p = random_problem(rng, n_max=10, m_max=10, with_eq=(trial % 3 == 0))
        opt, _ = exact_lp_optimum(p)
        x, (y, z), _ = lp.solve_approx(p)
        cert = lp.certify_upper_bound(p, y, z)
        assert Fraction(cert.bound) >= opt
        gaps.append(float(Fraction(cert.bound) - opt))
        # adversarial fuzz up to 1e-1
        fy = [v + rng.uniform(-0.1, 0.1) for v in y]
        fz = [v + rng.uniform(-0.1, 0.1) for v in z]
        fuzzed = lp.certify_upper_bound(p, fy, fz)
        assert Fraction(fuzzed.bound) >= opt
    gaps.sort()
    median = gaps[len(gaps) // 2]
    assert median <= 1e-6


def test_basis_oracle_agrees_with_the_rational_simplex():
    # exact_lp_optimum takes the float solver's basis and proves it optimal
    # in rationals; the rational simplex is the independent check of that
    rng = random.Random(911)
    proved = 0
    for trial in range(60):
        p = random_problem(rng, n_max=10, m_max=10, with_eq=(trial % 3 == 0))
        rows, rhs = oracles.inequality_rows(p)
        args = ([[Fraction(v) for v in row] for row in rows], [Fraction(v) for v in rhs],
                [[Fraction(v) for v in row] for row in p.aeq], [Fraction(v) for v in p.beq],
                [Fraction(v) for v in p.c])
        got = oracles.basis_optimum(*args)
        if got is not None:
            proved += 1
            assert got[0] == oracles.simplex_max(*args)[0], trial
    assert proved >= 55
    # an infeasible problem has no basis to prove; the simplex says why
    infeasible = lp.make_problem([1.0], [I(0, 2)], aineq=[[-1.0]], bineq=[-3.0])
    with pytest.raises(oracles.OracleInfeasible):
        exact_lp_optimum(infeasible)


def test_problem_file_round_trip():
    p = lp.make_problem([1.0, -0.5], [I(0, 2), I(-1, 1)],
                        aineq=[[1.0, 2.0]], bineq=[1.5],
                        aeq=[[0.5, 0.5]], beq=[0.25])
    text = lp.problem_to_text(p)
    assert lp.problem_from_text(text) == p
    # decimals go through the interval layer's reader
    parsed = lp.problem_from_text(
        "vars 1\nobj 0 0.1\nbound 0 0..1\n")
    assert parsed.c[0] == 0.1


def test_augmented_problem_file_round_trip():
    # bound rows are never written as rows, so an augmented problem read
    # back keeps its own z layout and certifies with its own dual
    rng = random.Random(1414)
    for p in (toy_max_x(), random_problem(rng, n_max=6, m_max=6, with_eq=True)):
        pa = lp.augment_with_t(p, 0.5)
        back = lp.problem_from_text(lp.problem_to_text(pa))
        assert back == pa
        _, (y, z), _ = lp.solve_approx(pa)
        got, want = lp.certify_upper_bound(back, y, z), lp.certify_upper_bound(pa, y, z)
        assert (got.bound, got.delta_bound, got.residual) == (
            want.bound, want.delta_bound, want.residual)


def test_augmented_problem_read_back_keeps_its_digest():
    # -lo of the zero lower bound was -0.0 in bineq and in the t column, and
    # the file reads a zero back as +0.0, so the digests differed
    pa = lp.augment_with_t(toy_max_x(), 0.5)
    back = lp.problem_from_text(lp.problem_to_text(pa))
    _, (y, z), _ = lp.solve_approx(pa)
    assert back == pa
    assert (lp.certify_upper_bound(back, y, z).inputs_digest
            == lp.certify_upper_bound(pa, y, z).inputs_digest)
    assert all(math.copysign(1.0, v) == 1.0 for v in pa.bineq)


def test_problem_file_errors():
    with pytest.raises(ParseError):
        lp.problem_from_text("vars oops\n")
    with pytest.raises(ParseError):
        lp.problem_from_text("vars 2\nbound 0 0..1\n")  # missing bound for x1
    with pytest.raises(ParseError):
        lp.problem_from_text("vars 1\nbound 0 0..1\nwat 3\n")


def test_dual_file_round_trip():
    y, z = lp.dual_from_text("0.25 -1.5\n1.0 0.0\n")
    assert y == (0.25, -1.5) and z == (1.0, 0.0)
    y2, z2 = lp.dual_from_text("\n1.5 2.5\n")
    assert y2 == () and z2 == (1.5, 2.5)
    # blank and comment-only lines may follow z
    assert lp.dual_from_text("\n1.5 2.5\n\n  # done\n\t\n") == ((), (1.5, 2.5))


def test_dual_file_rejects_text_after_the_z_line():
    with pytest.raises(ParseError, match="^line 3: "):
        lp.dual_from_text("\n1 0 0\n99 99\n")
    with pytest.raises(ParseError, match="^line 5: "):
        lp.dual_from_text("0.5\n1 0\n\n# note\n7  # a third vector\n")


def test_dual_file_error_names_its_line_and_first_bad_token():
    with pytest.raises(ParseError, match=r"^line 2: decimal numeral '1e400' overflows binary64$"):
        lp.dual_from_text("0.5\n1 1e400 x\n")
    with pytest.raises(ParseError, match=r"^line 2: decimal numeral '1e400' overflows binary64$"):
        lp.dual_from_text("0.5\n1 1e400 1e\n")
    with pytest.raises(ParseError, match=r"^line 1: invalid decimal numeral 'x'$"):
        lp.dual_from_text("0.5 x 1e400\n1\n")
    assert lp.dual_from_text("-0 1e-400\n-1e-400\n") == ((0.0, 0.0), (-0.0,))
    assert str(lp.dual_from_text("-0\n-1e-400\n")) == "((0.0,), (-0.0,))"


def test_digest_covers_every_input_of_the_bound():
    p = lp.make_problem([1.0, -0.5], [I(0, 2), I(-1, 1)],
                        aineq=[[1.0, 2.0]], bineq=[1.5], aeq=[[0.5, 0.5]], beq=[0.25])
    y, z = (0.25,), (0.5, 0.125, 0.0, 0.0, 0.0)
    digest = lp.certify_upper_bound(p, y, z).inputs_digest
    # dimensions, then c, Aeq, beq, core Aineq and bineq, bounds, y, z
    values = [1.0, -0.5, 0.5, 0.5, 0.25, 1.0, 2.0, 1.5, 0.0, 2.0, -1.0, 1.0,
              0.25, 0.5, 0.125, 0.0, 0.0, 0.0]
    layout = struct.pack("<4q", 2, 1, 1, 5) + struct.pack(f"<{len(values)}d", *values)
    assert digest == hashlib.sha256(layout).hexdigest()
    # the same on every run and platform
    assert digest == "e82fe06a3a1a1762a2efbc98765c6de910e89eebb26030a4212151abc9d4c646"

    up = lambda v: math.nextafter(v, math.inf)
    bumped = lambda vec, i: vec[:i] + (up(vec[i]),) + vec[i + 1:]
    variants = [
        (p._replace(c=bumped(p.c, 1)), y, z),
        (p._replace(aeq=(bumped(p.aeq[0], 0),)), y, z),
        (p._replace(beq=bumped(p.beq, 0)), y, z),
        (p._replace(aineq=(bumped(p.aineq[0], 1),) + p.aineq[1:]), y, z),
        (p._replace(bineq=bumped(p.bineq, 0)), y, z),
        (p._replace(var_bounds=(I(0, 2), I(-1, up(1.0)))), y, z),
        (p._replace(var_bounds=(I(up(0.0), 2), I(-1, 1))), y, z),
        (p, bumped(y, 0), z),
        (p, y, bumped(z, 1)),
    ]
    digests = {lp.certify_upper_bound(*v).inputs_digest for v in variants}
    assert len(digests) == len(variants) and digest not in digests


def test_digest_is_stable():
    p = toy_max_x()
    c1 = lp.certify_upper_bound(p, [], [1.0, 0.0, 0.0])
    c2 = lp.certify_upper_bound(p, [], [1.0, 0.0, 0.0])
    assert c1.inputs_digest == c2.inputs_digest


def _wild(rng, regime):
    """A float for one LP entry or multiplier.  'big' reaches factors at or
    above 2**995 and 'tiny' products below 2**-968, where the product
    kernels take their integer fallback; 'mixed' also overflows, and draws
    an occasional NaN."""
    kind = rng.randrange(4)
    if regime == "mixed" and rng.random() < 0.01:
        return math.nan
    if kind == 0:
        return 0.0
    if kind == 1:
        return rng.randint(-8, 8) / 4
    if regime == "plain" or kind == 2:
        return rng.uniform(-2.0, 2.0)
    if regime == "big" or (regime == "mixed" and rng.random() < 0.5):
        return math.ldexp(rng.uniform(-2.0, 2.0), rng.randint(990, 1022))
    return math.ldexp(rng.uniform(-2.0, 2.0), rng.randint(-560, -480))


def _outcome(fn):
    try:
        bound, delta_bound, residual = fn()
    except NonFiniteOperand as exc:
        return ("NonFiniteOperand", str(exc))
    return (bound.hex(), delta_bound.hex(), [(d.lo.hex(), d.hi.hex()) for d in residual])


def test_certify_is_bit_identical_to_the_interval_reference():
    rng = random.Random(2004)
    raised = finished = 0
    for trial in range(400):
        regime = ("plain", "big", "tiny", "mixed")[trial % 4]
        n, m, m_eq = rng.randint(1, 6), rng.randint(0, 5), rng.randint(0, 3)
        draw = lambda: _wild(rng, regime)
        p = lp.make_problem([draw() for _ in range(n)],
                            [I(-rng.randint(0, 8) / 2, rng.randint(0, 8) / 2) for _ in range(n)],
                            aineq=[[draw() for _ in range(n)] for _ in range(m)],
                            bineq=[draw() for _ in range(m)],
                            aeq=[[draw() for _ in range(n)] for _ in range(m_eq)],
                            beq=[draw() for _ in range(m_eq)])
        if regime == "big":  # multipliers near 1, so most products stay finite
            y = [rng.uniform(-1, 1) for _ in range(m_eq)]
            z = [rng.choice((0.0, rng.random())) for _ in range(p.m_ineq)]
        else:
            y, z = [draw() for _ in range(m_eq)], [draw() for _ in range(p.m_ineq)]

        def library():
            cert = lp.certify_upper_bound(p, y, z)
            return cert.bound, cert.delta_bound, cert.residual

        got, want = _outcome(library), _outcome(lambda: reference_certify(p, y, z))
        assert got == want, (trial, regime)
        raised += want[0] == "NonFiniteOperand"
        finished += want[0] != "NonFiniteOperand"
    assert raised >= 10 and finished >= 300
