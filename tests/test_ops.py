from fractions import Fraction

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycdaha.laurent import LaurentPoly
from cycdaha.ops import (
    FamilyMismatch,
    Gen,
    OperatorExpr,
    Rep,
    box_monomials,
    index_ok,
    op_equal_on_box,
    op_equal_randomized,
    word_product,
)
from cycdaha.scalars import QQ, CycloNumber, RatFunc1, RatFuncField
from test_laurent import combination, derivative, divided_difference, fraction_long_division


def daha_rep(N=2, l=0):
    Z = tuple(Fraction(2 + i, 3) for i in range(l))
    return Rep.daha(N, q=Fraction(7, 5), tb=Fraction(3, 2), Z=Z)


def test_T_on_X1_and_cross_check():
    rep = daha_rep(2)
    tb = rep.params["tb"]
    img = rep.apply_gen(Gen("T", 1), rep.var(1))
    assert img == rep.var(2) * (1 / tb)
    # cross-check: T_1 X_1 T_1 . 1 = X_2 (T_1 . 1 = tb, then tb X_1 maps to X_2)
    w = OperatorExpr.word([Gen("T", 1), Gen("X", 1), Gen("T", 1)])
    assert rep.apply(w, rep.one()) == rep.var(2)
    assert rep.apply_gen(Gen("T", 1), rep.one()) == rep.one() * tb


def test_Y_on_constants_gives_powers_of_t():
    for N in (2, 3, 4):
        rep = daha_rep(N)
        t = rep.params["t"]
        for i in range(1, N + 1):
            assert rep.apply_gen(Gen("Y", i), rep.one()) == rep.one() * t ** (i - 1)


def test_apply_expr_examples():
    repd = Rep.degenerate(2, 1, Fraction(2, 3))
    # pi . 1 = X_1 in the degenerate family
    assert repd.apply_gen(Gen("pi"), repd.one()) == repd.var(1)
    rep = daha_rep(2)
    e = OperatorExpr.gen("X", 1) * 2 + OperatorExpr.gen("X", 2)
    assert rep.apply(e, rep.one()) == 2 * rep.var(1) + rep.var(2)
    p = rep.monomial((3, 1))
    w = OperatorExpr.word([Gen("Y", 1), Gen("Y^-1", 1)])
    assert rep.apply(w, p) == p


def test_trig_dunkl_example():
    rep = Rep.degenerate(2, 1, Fraction(2, 3))
    k = rep.params["k"]
    img = rep.apply_gen(Gen("y", 1), rep.var(1))
    assert img == rep.var(1) * (1 - k)


def test_inverse_pairs_on_box():
    rep = daha_rep(2)
    pairs = [("T", "T^-1", 1), ("X", "X^-1", 1), ("Y", "Y^-1", 2),
             ("omega", "omega^-1", 0), ("pi", "pi^-1", 0)]
    for a, b, i in pairs:
        w1 = OperatorExpr.word([Gen(a, i), Gen(b, i)])
        w2 = OperatorExpr.word([Gen(b, i), Gen(a, i)])
        assert op_equal_on_box(rep, w1, OperatorExpr.one(), 2)["result"]
        assert op_equal_on_box(rep, w2, OperatorExpr.one(), 2)["result"]
    repd = Rep.degenerate(2, 1, Fraction(2, 3), z=(Fraction(1, 3),))
    for a, b in [("pi", "pi^-1")]:
        w1 = OperatorExpr.word([Gen(a), Gen(b)])
        assert op_equal_on_box(repd, w1, OperatorExpr.one(), 2)["result"]
    repc = Rep.cyclotomic_cherednik(2, 3, 1, Fraction(1, 2), (1, 2, 3))
    w = OperatorExpr.word([Gen("sigma", 1), Gen("sigma^-1", 1)])
    assert op_equal_on_box(repc, w, OperatorExpr.one(), 2)["result"]


def test_pi_power_N_is_multiplication_by_all_variables():
    for N in (2, 3, 4):
        rep = Rep.degenerate(N, 1, Fraction(2, 3))
        lhs = OperatorExpr.gen("pi") ** N
        rhs = OperatorExpr.word([Gen("X", i) for i in range(1, N + 1)])
        assert op_equal_on_box(rep, lhs, rhs, 2)["result"]


def test_operator_power_takes_only_ints_at_least_zero():
    """T_1^-1 is not (T_1)^-1 as an OperatorExpr power: a negative or non-int
    exponent raises instead of returning the identity, which would let
    op_equal_on_box pass T_1^-1 = 1."""
    T1 = OperatorExpr.gen("T", 1)
    for n in (-1, -2, Fraction(1, 2), 2.0):
        with pytest.raises(ValueError):
            T1 ** n
    assert T1 ** 0 == OperatorExpr.one() and T1 ** 2 == T1 * T1
    assert not op_equal_on_box(daha_rep(2), T1 * T1, OperatorExpr.one(), 1)["result"]


def test_a_zero_scalar_gives_the_zero_expression():
    """0 * e and e * 0 keep no word with coefficient 0, also for a kept
    product, and so does y_f of the zero polynomial."""
    from cycdaha.macdonald import y_f

    e = OperatorExpr.gen("T", 1) + OperatorExpr.gen("X", 2)
    for zero in (0 * e, e * 0, 0 * (e * e), (e * e) * 0, y_f(daha_rep(2), 1, [0])):
        assert not zero and zero == OperatorExpr.zero() and repr(zero) == "0"


def test_rational_dunkl_commutativity():
    for N in (2, 3, 4):
        rep = Rep.degenerate(N, 1, Fraction(2, 3))
        B = 2 if N < 4 else 1
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                a = OperatorExpr.word([Gen("D", i), Gen("D", j)])
                b = OperatorExpr.word([Gen("D", j), Gen("D", i)])
                assert op_equal_on_box(rep, a, b, B)["result"]


def test_dunkl_opdam_commutativity_small():
    rep = Rep.cyclotomic_cherednik(
        2, 2, 1, Fraction(2, 3), (Fraction(1, 2), Fraction(3))
    )
    a = OperatorExpr.word([Gen("DO", 1), Gen("DO", 2)])
    b = OperatorExpr.word([Gen("DO", 2), Gen("DO", 1)])
    assert op_equal_on_box(rep, a, b, 2)["result"]


def _literal_dunkl_opdam(rep, i, p):
    """DO_i as displayed: l scale_vars for the c-part, the divided
    differences at c = zeta^m for the k-part, one combination."""
    hbar, k, c = rep.params["hbar"], rep.params["k"], rep.params["c"]
    N, dom, zeta = rep.N, rep.dom, rep.dom.zeta
    acc = combination(
        N, dom, [(cj, p.scale_var(i, zeta ** j)) for j, cj in enumerate(c) if cj])
    unit = tuple(-1 if r == i else 0 for r in range(1, N + 1))
    parts = [(hbar, derivative(p, i)), (-1, acc.shift(unit))]
    parts += [(-k, divided_difference(p, i, r, zeta ** m))
              for r in range(1, N + 1) if r != i for m in range(rep.l)]
    return combination(N, dom, parts)


@pytest.mark.parametrize("k", [0, Fraction(2, 3)])
@pytest.mark.parametrize("N,l", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_dunkl_opdam_matches_the_literal_form(N, l, k):
    """The one-pass DO_i, with its integer k-part over the Z/l orbit, equals
    the literal sum on every monomial of the B = 3 box (c_1 = 0 for l > 1),
    and on one polynomial of several terms."""
    c = tuple(0 if j == 1 else Fraction(2 * j + 1, 3) for j in range(l))
    rep = Rep.cyclotomic_cherednik(N, l, Fraction(3, 4), k, c)
    several = LaurentPoly(N, rep.dom, {
        e: Fraction(j + 1, 5) for j, e in enumerate(list(box_monomials(N, 2))[::7])})
    for i in range(1, N + 1):
        for p in [rep.monomial(e) for e in box_monomials(N, 3)] + [several]:
            assert rep.apply_gen(Gen("DO", i), p) == _literal_dunkl_opdam(rep, i, p), (i, p)


@pytest.mark.parametrize("N,k", [(N, k) for N in (2, 3) for k in (0, Fraction(2, 3))])
def test_dunkl_opdam_at_l_1_without_c_is_the_rational_dunkl(N, k):
    """DO_i at l = 1 and c = (0,) over Q(zeta_1) equals deg's D_i over QQ
    at the same hbar and k, on every monomial of the B = 3 box."""
    cyc = Rep.cyclotomic_cherednik(N, 1, Fraction(3, 4), k, (0,))
    deg = Rep.degenerate(N, Fraction(3, 4), k)
    for i in range(1, N + 1):
        for e in box_monomials(N, 3):
            d = LaurentPoly(N, cyc.dom, deg.apply_gen(Gen("D", i), deg.monomial(e)).terms)
            assert cyc.apply_gen(Gen("DO", i), cyc.monomial(e)) == d, (i, e)


def _literal_dunkl(rep, i, p, sign=1):
    """D_i = hbar d_i - k sum_{j != i} (1 - s_ij)/(X_i - X_j) as displayed,
    from the reference derivative and divided differences in one
    combination; sign = -1 flips the k-part (a wrong variant)."""
    hbar, k = rep.params["hbar"], rep.params["k"]
    parts = [(hbar, derivative(p, i))]
    parts += [(-sign * k, divided_difference(p, i, j)) for j in range(1, rep.N + 1) if j != i]
    return combination(rep.N, rep.dom, parts)


def _literal_trig_dunkl(rep, i, p, d, sij=True):
    """y_i = X_i D_i - k sum_{j<i} s_ij as displayed, d being D_i p;
    sij=False drops the s_ij terms (a wrong variant)."""
    unit = tuple(1 if r == i else 0 for r in range(1, rep.N + 1))
    parts = [(1, d.shift(unit))]
    if sij:
        parts += [(-rep.params["k"], p.swap(i, j)) for j in range(1, i)]
    return combination(rep.N, rep.dom, parts)


@pytest.mark.parametrize("N,k", [(N, k) for N in (2, 3, 4) for k in (0, Fraction(2, 3))]
                         + [(3, "t")])
def test_degenerate_dunkl_matches_the_literal_form(N, k):
    """The one-pass D_i and y_i (Dtrig_i) equal hbar d_i - k sum (1 - s_ij)/(X_i - X_j)
    and X_i D_i - k sum_{j<i} s_ij on every monomial of the B = 3 box, and on
    one polynomial of several terms, at hbar = 3/4: N = 2, 3, 4 at k = 0 and
    2/3, and over Q(t) at k = t."""
    rep = Rep.degenerate(N, Fraction(3, 4), RatFuncField(k).gen if k == "t" else k)
    several = LaurentPoly(N, rep.dom, {
        e: Fraction(j + 1, 5) for j, e in enumerate(list(box_monomials(N, 2))[::7])})
    for i in range(1, N + 1):
        for p in [rep.monomial(e) for e in box_monomials(N, 3)] + [several]:
            d = _literal_dunkl(rep, i, p)
            assert rep.apply_gen(Gen("D", i), p) == d, (i, p)
            y = _literal_trig_dunkl(rep, i, p, d)
            assert rep.apply_gen(Gen("y", i), p) == y, (i, p)
            assert rep.apply_gen(Gen("Dtrig", i), p) == y, (i, p)


@pytest.mark.parametrize("wrong", [{"sign": -1}, {"sij": False}], ids=["k-sign", "no-sij"])
def test_a_wrong_degenerate_dunkl_fails_the_deg_daha_suite(monkeypatch, wrong):
    """Control: the literal D_i and y_i pass the deg-daha suite on the B = 3
    box at N = 3, and fail it with the sign of the k-part of D_i flipped, or
    with the s_ij terms of y_i dropped."""
    from cycdaha.algebra import sample_rep, verify_family

    def variant(sign=1, sij=True):
        def dunkl(rep, i, p, trig=False):
            d = _literal_dunkl(rep, i, p, sign)
            return _literal_trig_dunkl(rep, i, p, d, sij) if trig else d

        monkeypatch.setattr(Rep, "_dunkl", dunkl)
        return verify_family(sample_rep("deg-daha", 3), "deg-daha", "box", 3)

    assert variant()["all_pass"]
    assert any(r["status"] == "fail" for r in variant(**wrong)["relations"])


def _displayed_product(rep, g):
    """Dl_i and pi_- as the ops docstring displays them, every factor
    written out (no factor is another Dl), as an OperatorExpr."""
    y, roots = {"daha": ("Y", "Z"), "deg": ("y", "z")}[rep.family]
    roots = [OperatorExpr.gen(y, 1) - z for z in rep.params[roots]]
    if g.tag == "pi-":
        return word_product([OperatorExpr.gen("pi^-1"), *roots])
    if rep.family == "daha":
        left = [Gen("T^-1", j) for j in range(g.i - 1, 0, -1)]
        right = left[::-1]
    else:
        left = right = [Gen("sij", 1, g.i)] if g.i > 1 else []
    return word_product([OperatorExpr.word(left + [Gen("X^-1", 1)]), *roots,
                         OperatorExpr.word(right)])


def test_dl_and_pi_minus_equal_their_displayed_factor_lists():
    """Dl_i built from Dl_{i-1} (daha) or Dl_1 (deg), and pi_-
    built from Dl_1, equal the displayed products applied by Rep.apply on a
    second rep (so no cache is shared), on the B = 2 box at N = 3."""
    from cycdaha.algebra import sample_rep

    def reps():
        return [daha_rep(3, l=2), sample_rep("l1", 3, 1, seed=1),
                Rep.degenerate(3, Fraction(3, 4), Fraction(2, 3),
                               (Fraction(1, 3), Fraction(5, 2)))]

    for rep, ref in zip(reps(), reps()):
        for g in [Gen("Dl", 1), Gen("Dl", 2), Gen("Dl", 3), Gen("pi-")]:
            displayed = _displayed_product(ref, g)
            for e in box_monomials(3, 2):
                p = rep.monomial(e)
                assert rep.apply_gen(g, p) == ref.apply(displayed, p), (rep.family, g, e)


def test_a_wrong_dunkl_opdam_commutator_fails():
    """Control: DO_1 DO_2 = DO_2 DO_1 holds on the box, and fails with DO_2
    scaled by 8/7 on one side."""
    rep = Rep.cyclotomic_cherednik(3, 3, 1, Fraction(2, 3), (Fraction(1, 2), 3, Fraction(-2, 5)))
    a, b = OperatorExpr.gen("DO", 1), OperatorExpr.gen("DO", 2)
    assert op_equal_on_box(rep, a * b, b * a, 2)["result"]
    assert not op_equal_on_box(rep, a * (b * Fraction(8, 7)), b * a, 2)["result"]


def test_q_dunkl_commutativity():
    rep = daha_rep(3, l=2)
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        a = OperatorExpr.word([Gen("Dl", i), Gen("Dl", j)])
        b = OperatorExpr.word([Gen("Dl", j), Gen("Dl", i)])
        assert op_equal_on_box(rep, a, b, 1)["result"]


def test_polynomial_preservation():
    """With 1 among the Z_i the level generators keep honest polynomials
    polynomial, and no division error can occur."""
    rep = Rep.daha(2, Fraction(7, 5), Fraction(3, 2), Z=(Fraction(1), Fraction(5, 3)))
    for e in box_monomials(2, 2):
        if min(e) < 0:
            continue
        p = rep.monomial(e)
        for g in (Gen("Dl", 1), Gen("Dl", 2), Gen("pi-")):
            img = rep.apply_gen(g, p)
            assert all(min(x) >= 0 for x in img.terms), (g, e)


def test_box_equality_examples():
    rep = daha_rep(2)
    tb = rep.params["tb"]
    T1 = OperatorExpr.gen("T", 1)
    assert op_equal_on_box(rep, T1 * T1, (tb - 1 / tb) * T1 + OperatorExpr.one(), 3)[
        "result"
    ]
    X1X2 = OperatorExpr.word([Gen("X", 1), Gen("X", 2)])
    X2X1 = OperatorExpr.word([Gen("X", 2), Gen("X", 1)])
    assert op_equal_on_box(rep, X1X2, X2X1, 2)["result"]
    # Y_2 X_1 != X_1 Y_2 at generic q, t (forced by the cross relation)
    a = OperatorExpr.word([Gen("Y", 2), Gen("X", 1)])
    b = OperatorExpr.word([Gen("X", 1), Gen("Y", 2)])
    r = op_equal_on_box(rep, a, b, 2)
    assert not r["result"]
    w = r["witness"]
    p = rep.monomial(tuple(w["monomial"]))
    assert rep.apply(a, p) != rep.apply(b, p)


def test_a_box_shows_equality_on_its_monomials_only():
    """Control for what a box shows: P = prod_{j=-3}^{3} (tau_1 - q^j)
    kills every monomial with |e_1| <= 3, so it equals 0 on the box of
    radius 3, and not on the box of radius 4."""
    from cycdaha.algebra import sample_rep

    rep = sample_rep("daha", 2, seed=1)
    q = rep.params["q"]
    P = OperatorExpr.one()
    for j in range(-3, 4):
        P = P * (OperatorExpr.gen("tau", 1) - q ** j * OperatorExpr.one())
    assert op_equal_on_box(rep, P, OperatorExpr.zero(), 3)["result"]
    r = op_equal_on_box(rep, P, OperatorExpr.zero(), 4)
    assert not r["result"]
    assert abs(r["witness"]["monomial"][0]) == 4


def test_Y1_against_reflection_product_formula():
    """Independent route for Y_1: the factored difference-reflection form

        Y_1 = (1 + (1-t)X_1/(X_2-X_1)(1-s_12)) ... (1 + (1-t)X_1/(X_N-X_1)(1-s_1N)) tau_1

    evaluated by long division (test_laurent's reference), with the
    rightmost factor acting first."""
    for N in (2, 3):
        rep = daha_rep(N)
        t, q = rep.params["t"], rep.params["q"]

        def oracle(p):
            x = p.scale_var(1, q)
            for j in range(N, 1, -1):
                num = (x - x.swap(1, j)).shift(
                    tuple(1 if v == 0 else 0 for v in range(N))
                )
                den = rep.var(j) - rep.var(1)
                x = x + fraction_long_division(num, den) * (1 - t)
            return x

        for e in box_monomials(N, 2):
            p = rep.monomial(e)
            assert oracle(p) == rep.apply_gen(Gen("Y", 1), p)


def test_randomized_equality():
    rep = daha_rep(3)
    s1 = OperatorExpr.word([Gen("T", 1), Gen("T", 2), Gen("T", 1)])
    s2 = OperatorExpr.word([Gen("T", 2), Gen("T", 1), Gen("T", 2)])
    assert op_equal_randomized(rep, s1, s2, trials=10, seed=4)["result"]
    bad = OperatorExpr.word([Gen("T", 1)])
    assert not op_equal_randomized(rep, s1, bad, trials=10, seed=4)["result"]


def test_a_check_of_no_monomial_is_rejected():
    """T_1 = X_1 is false, so a pass on it would mean nothing was checked: a
    negative box radius (an empty box) and zero trials raise ValueError,
    and B = 0, the monomial 1 alone, finds the difference."""
    rep = daha_rep(2)
    T1, X1 = OperatorExpr.gen("T", 1), OperatorExpr.gen("X", 1)
    for B in (-1, -2):
        with pytest.raises(ValueError):
            op_equal_on_box(rep, T1, X1, B)
    for trials in (0, -1):
        with pytest.raises(ValueError):
            op_equal_randomized(rep, T1, X1, trials, seed=0)
    r = op_equal_on_box(rep, T1, X1, 0)
    assert not r["result"] and r["witness"]["monomial"] == [0, 0]
    assert not op_equal_randomized(rep, T1, X1, 1, seed=0)["result"]


def test_family_mismatch():
    rep = daha_rep(2)
    with pytest.raises(FamilyMismatch):
        rep.apply_gen(Gen("DO", 1), rep.one())
    repd = Rep.degenerate(2, 1, Fraction(1, 2))
    with pytest.raises(FamilyMismatch):
        repd.apply_gen(Gen("T", 1), repd.one())
    with pytest.raises(FamilyMismatch):
        rep.apply_gen(Gen("sij", 1, 2), rep.one())
    # tau is the q-shift, and only daha has a q
    assert rep.apply_gen(Gen("tau", 1), rep.var(1)) == rep.var(1) * rep.params["q"]
    repc = Rep.cyclotomic_cherednik(2, 2, 1, Fraction(1, 2), (1, 2))
    for other in (repd, repc):
        with pytest.raises(FamilyMismatch):
            other.apply_gen(Gen("tau", 1), other.var(1))


def test_family_mismatch_raises_every_time_and_leaves_no_cache():
    """The family check sits on the cache-miss path, so a Gen outside the
    family never gets a cache and raises on every call, also after valid
    generators have filled theirs."""
    rep = daha_rep(2)
    repd = Rep.degenerate(2, 1, Fraction(1, 2))
    cases = ((rep, Gen("sij", 1, 2)), (rep, Gen("DO", 1)), (repd, Gen("T", 1)),
             (repd, Gen("tau", 1)))
    for r, g in cases:
        for _ in range(2):
            with pytest.raises(FamilyMismatch):
                r.apply_gen(g, r.monomial((1, -1)))
            assert g not in r._cache
        r.apply_gen(Gen("s", 1), r.var(1))
        with pytest.raises(FamilyMismatch):
            r.apply_gen(g, r.var(1))
        assert g not in r._cache and Gen("s", 1) in r._cache


def test_generator_indices_outside_the_rank_raise():
    """An index the rank does not have raises ValueError on every call:
    X_0 used to act as X_N and T_0 on (X_N, X_1), while T_N, X_{N+1} and
    s_N raised IndexError or KeyError.  s_0 = s_1N X_1^-1 X_N is the
    identity at N = 1, where s_1N = s_11."""
    rep = daha_rep(3)
    repd = Rep.degenerate(3, 1, Fraction(1, 2))
    cases = [(rep, Gen(tag, i)) for tag, i in (("X", 0), ("T", 0), ("T", 3), ("X", 4),
                                                ("s", 3), ("omega", 1), ("Y", 4))]
    cases += [(repd, g) for g in (Gen("sij", 0, 2), Gen("sij", 1, 4), Gen("s0", 1))]
    for r, g in cases:
        assert not index_ok(g, 3)
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                r.apply_gen(g, r.var(1))
    assert [index_ok(Gen(tag, i), 3) for tag in ("T", "X") for i in (1, 2, 3)] == [
        True, True, False, True, True, True]
    assert index_ok(Gen("pi-"), 3) and index_ok(Gen("sij", 1, 3), 3)
    rep1 = Rep.degenerate(1, 1, Fraction(1, 2))
    assert rep1.apply_gen(Gen("s0"), rep1.var(1)) == rep1.var(1)


def test_field_follows_the_parameters():
    t = RatFuncField("t").gen
    assert Rep.daha(2, 2, 3).dom is QQ
    rep = Rep.daha(2, Fraction(2, 3), t, (t + 1,))
    assert rep.dom.name == "QQ(t)" and rep.params["q"] == RatFunc1.const("t", Fraction(2, 3))
    assert Rep.degenerate(2, 1, 2, (CycloNumber.zeta(3),)).dom.name == "QQ(zeta_3)"
    assert Rep.degenerate(2, 1, RatFuncField("k").gen).dom.name == "QQ(k)"
    with pytest.raises(TypeError):
        Rep.daha(2, RatFuncField("q").gen, t)
    # Q(zeta_l) needs l >= 1: there is no QQ(zeta_0)
    with pytest.raises(ValueError):
        Rep.cyclotomic_cherednik(2, 0, 1, 1, ())
    with pytest.raises(TypeError):
        Rep.degenerate(2, 1, t, (CycloNumber.zeta(3),))


def test_t_equals_tb_squared_enforced():
    rep = daha_rep(2)
    assert rep.params["t"] == rep.params["tb"] ** 2
    with pytest.raises(ValueError):
        Rep(
            "daha", 2, 0,
            {"q": Fraction(2), "tb": Fraction(2), "t": Fraction(5)},
        )


def test_caching_is_semantically_invisible():
    rep = daha_rep(2)
    p = rep.monomial((1, -1))
    first = rep.apply_gen(Gen("T", 1), p)
    second = rep.apply_gen(Gen("T", 1), p)
    assert first == second
    assert rep.apply_gen(Gen("T", 1), p + p) == first * 2


# deg's s0, pi and pi^-1 are monomial maps (see _MONOMIAL_TAGS)
_COMPOSITES = {"daha": ["Y", "Y^-1", "Dl", "pi", "pi^-1", "pi-"],
               "deg": ["Dl", "pi-"]}


def _composite_reps():
    """daha over QQ at levels 0, 1, 2 and deg at levels 0, 2, for N = 2, 3,
    and daha over Q(t) with tb = t at level 1, N = 2."""
    for N in (2, 3):
        for l in (0, 1, 2):
            yield daha_rep(N, l)
        for z in ((), (Fraction(1, 3), Fraction(5, 2))):
            yield Rep.degenerate(N, Fraction(3, 4), Fraction(2, 3), z)
    yield Rep.daha(2, Fraction(7, 5), RatFuncField("t").gen, (Fraction(2, 3),))


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_a_composite_on_a_polynomial_is_the_sum_of_its_monomial_images(data):
    """A composite applied to a polynomial of several terms, on a rep whose
    cache of it is cold or holds some of the terms (or all, or others),
    equals the sum of the cached images of its monomials on a second rep;
    unless every term was cached, the call leaves the composite's cache as
    it was."""
    k = data.draw(st.integers(0, 10))
    rep, ref = (list(_composite_reps())[k] for _ in range(2))
    N = rep.N
    tag = data.draw(st.sampled_from(_COMPOSITES[rep.family]))
    g = Gen(tag, data.draw(st.integers(1, N))) if tag in ("Y", "Y^-1", "Dl") else Gen(tag)
    exps = st.tuples(*[st.integers(-2, 2)] * N)
    p = LaurentPoly(N, rep.dom, data.draw(st.dictionaries(
        exps, st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
        min_size=2, max_size=4)))
    warm = data.draw(st.lists(st.one_of(st.sampled_from(sorted(p.nums)), exps), max_size=4))
    for e in warm:
        rep.apply_gen(g, rep.monomial(e))
    cached = dict(rep._cache.get(g, {}))
    expected = combination(
        N, ref.dom, [(c, ref.apply_gen(g, ref.monomial(e))) for e, c in p.terms.items()])
    assert rep.apply_gen(g, p) == expected
    assert rep._cache[g] == cached


def test_a_composite_caches_only_the_monomials_it_is_applied_to():
    """Dl_3 applied to a polynomial of two terms on a cold cyc-daha rep
    (N = 3, l = 2) is evaluated through its factors, and leaves every Y and
    Dl cache empty; applied then to a unit monomial, it adds that one image
    to its own cache and nothing to any other Y or Dl cache."""
    rep = daha_rep(3, l=2)
    dl3 = Gen("Dl", 3)
    p = rep.monomial((1, -1, 0)) + rep.monomial((0, 2, 1), Fraction(2, 3))
    rep.apply_gen(dl3, p)

    def entries():
        return {g: dict(c) for g, c in rep._cache.items()
                if g.tag in ("Y", "Y^-1", "Dl") and c}

    assert {Gen("Dl", 1), Gen("Dl", 2), Gen("Y", 1)} <= rep._cache.keys()
    assert entries() == {}
    img = rep.apply_gen(dl3, rep.monomial((2, 0, -1)))
    assert entries() == {dl3: {(2, 0, -1): img}}


def _engine_generators(family, N):
    """Every generator of the family at rank N, tag by tag."""
    adjacent = {"daha": ["T", "T^-1", "s"], "deg": ["s"], "cyc": ["s"]}[family]
    single = {
        "daha": ["X", "X^-1", "Y", "Y^-1", "tau", "Dl"],
        "deg": ["X", "X^-1", "D", "Dtrig", "y", "Dl"],
        "cyc": ["X", "X^-1", "sigma", "sigma^-1", "DO"],
    }[family]
    bare = {"daha": ["omega", "omega^-1", "pi", "pi^-1", "pi-"],
            "deg": ["s0", "pi", "pi^-1", "pi-"], "cyc": []}[family]
    gens = [Gen(t, i) for t in adjacent for i in range(1, N)]
    if family != "daha":
        gens += [Gen("sij", i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]
    gens += [Gen(t, i) for t in single for i in range(1, N + 1)]
    return gens + [Gen(t) for t in bare]


def _engine_reps(N):
    for Z in ((), (Fraction(2, 3),), (Fraction(2, 3), Fraction(5, 4))):
        yield Rep.daha(N, Fraction(7, 5), Fraction(3, 2), Z)
    for z in ((), (Fraction(1, 3), Fraction(5, 2))):
        yield Rep.degenerate(N, Fraction(3, 4), Fraction(2, 3), z)
    for c in ((Fraction(1, 2), 3), (Fraction(1, 2), 3, Fraction(-2, 5))):
        yield Rep.cyclotomic_cherednik(N, len(c), Fraction(2, 3), Fraction(1, 2), c)


def test_engine_fingerprint():
    """SHA-256 over the image of every generator of every table tag on the
    B = 1 box: daha at l = 0, 1, 2, deg at l = 0, 2 and cyc at l = 2, 3, for
    N = 2, 3 (5,967 images)."""
    import hashlib
    import json

    from cycdaha.ops import GENERATORS

    digest = hashlib.sha256()
    count = 0
    for N in (2, 3):
        for rep in _engine_reps(N):
            gens = _engine_generators(rep.family, N)
            assert {g.tag for g in gens} == set(GENERATORS[rep.family]), rep.family
            for g in gens:
                for e in box_monomials(N, 1):
                    img = rep.apply_gen(g, rep.monomial(e))
                    digest.update(json.dumps(
                        [rep.family, N, rep.l, repr(g), list(e), img.to_json()],
                        sort_keys=True).encode())
                    count += 1
    assert count == 5967
    assert digest.hexdigest() == (
        "96472b67ea43f8b693dfed4b38c63b44452ef6a2aba46f2b8d9b38ae8a864521"
    )


def test_cyclotomic_engine_fingerprint():
    """SHA-256 over the image of every cyc generator on the N = 2, B = 1 box
    at l = 4 and 5 (phi = 2 and 4), where the reduction mod Phi_l is
    nontrivial (216 images)."""
    import hashlib
    import json

    from cycdaha.ops import GENERATORS

    digest = hashlib.sha256()
    count = 0
    for c in ((Fraction(1, 2), 3, Fraction(-2, 5), Fraction(7, 3)),
              (Fraction(1, 2), 3, Fraction(-2, 5), Fraction(7, 3), -1)):
        rep = Rep.cyclotomic_cherednik(2, len(c), Fraction(2, 3), Fraction(1, 2), c)
        gens = _engine_generators("cyc", 2)
        assert {g.tag for g in gens} == set(GENERATORS["cyc"])
        for g in gens:
            for e in box_monomials(2, 1):
                img = rep.apply_gen(g, rep.monomial(e))
                digest.update(json.dumps(
                    [rep.l, repr(g), list(e), img.to_json()], sort_keys=True).encode())
                count += 1
    assert count == 216
    assert digest.hexdigest() == (
        "80c82d9e44114d06c50fe46da242a306453e574974e9c26af3b9730d3499c148"
    )


def test_a_rep_is_freed_without_the_cycle_collector():
    """Nothing the engine keeps on a Rep refers back to it, so its image
    caches go with the last reference; a cycle would keep them until a full
    collection and raise the peak memory of a sweep."""
    import gc
    import weakref

    gc.disable()
    try:
        for rep in _engine_reps(2):
            for g in _engine_generators(rep.family, 2):
                rep.apply_gen(g, rep.monomial((1, -1)) + rep.var(2))
            ref = weakref.ref(rep)
            del rep
            assert ref() is None
        # fresh reps whose caches are filled through Rep.apply of a sum of
        # words and of a kept product, and through the composite generators
        # alone, whose images come from expressions kept on the rep (cyc
        # has none, so DO stands in)
        for rep in _engine_reps(2):
            gens = {"daha": [Gen("Y", 1), Gen("Dl", 2), Gen("Y^-1", 2), Gen("pi"),
                             Gen("pi^-1"), Gen("pi-")],
                    "deg": [Gen("Dl", 2), Gen("s0"), Gen("pi"), Gen("pi^-1"), Gen("pi-")],
                    "cyc": [Gen("DO", 1)]}[rep.family]
            s1 = Gen("s", 1)
            expr = OperatorExpr({(gens[0], s1): 2, (Gen("X", 1), s1): Fraction(1, 3),
                                 (Gen("X", 2), gens[-1]): -1, (): 5})
            p = rep.monomial((1, -1)) + rep.var(2)
            rep.apply(expr, p)
            rep.apply((expr + 1) * (OperatorExpr.word([gens[-1]]) - 2), p)
            for g in gens:
                rep.apply_gen(g, rep.monomial((2, 0)))
            # a monomial map (deg's s0, pi, pi^-1) keeps its exponent table
            # in its slot, any other generator its images in its cache
            monomial = {g for g in gens if rep._slots[g][0] is None}
            assert all(rep._slots[g][1] for g in monomial)
            assert all(rep._cache[g] for g in gens if g not in monomial)
            if rep.family != "cyc":
                assert set(gens) - monomial <= rep._exprs.keys()
            ref = weakref.ref(rep)
            del rep
            assert ref() is None
    finally:
        gc.enable()


def _monomial_reps():
    """Reps of every family over QQ, Q(zeta_3) and Q(t) (cyc only over
    Q(zeta_3)), for N = 1, 2, 3."""
    t = RatFuncField("t").gen
    zeta = CycloNumber.zeta(3)
    for N in (1, 2, 3):
        yield Rep.daha(N, Fraction(7, 5), Fraction(3, 2), (Fraction(2, 3),))
        yield Rep.daha(N, 2 + zeta, Fraction(3, 2), (zeta,))
        yield Rep.daha(N, t, Fraction(3, 2))
        yield Rep.degenerate(N, Fraction(3, 4), Fraction(2, 3), (Fraction(1, 3),))
        yield Rep.degenerate(N, Fraction(3, 4), Fraction(2, 3), (zeta,))
        yield Rep.degenerate(N, Fraction(3, 4), t)
        yield Rep.cyclotomic_cherednik(N, 3, Fraction(2, 3), Fraction(1, 2),
                                       (Fraction(1, 2), 3, Fraction(-2, 5)))


def _unit_vector(N, i, v):
    return tuple(v if k == i else 0 for k in range(1, N + 1))


def _monomial_reference(rep, g, p):
    """g.p for a monomial-map tag g, from LaurentPoly's own operations: shift
    for X^+-1, swap for s and s_ij, substitute for the q- and zeta-scalings
    tau, sigma^+-1 and for omega^+-1; the degenerate s_0, pi and pi^-1 as
    their displayed factor lists, applied factor by factor."""
    N, q = rep.N, rep.params.get("q")
    if g.tag in ("X", "X^-1"):
        return p.shift(_unit_vector(N, g.i, 1 if g.tag == "X" else -1))
    if g.tag == "s":
        return p.swap(g.i, g.i + 1)
    if g.tag == "sij":
        return p.swap(g.i, g.j)
    if g.tag == "tau":
        return p.substitute({g.i: (q, g.i)})
    if g.tag in ("sigma", "sigma^-1"):
        zeta = rep.dom.zeta
        return p.substitute({g.i: (zeta if g.tag == "sigma" else 1 / zeta, g.i)})
    if g.tag == "omega":
        # f(q X_N, X_1, ..., X_{N-1})
        return p.substitute({1: (q, N), **{i: (1, i - 1) for i in range(2, N + 1)}})
    if g.tag == "omega^-1":
        # f(X_2, ..., X_N, q^-1 X_1)
        return p.substitute({N: (1 / q, 1), **{i: (1, i + 1) for i in range(1, N)}})
    word = {"s0": [Gen("sij", 1, N), Gen("X^-1", 1), Gen("X", N)],
            "pi": [Gen("X", 1), *[Gen("s", i) for i in range(1, N)]],
            "pi^-1": [*[Gen("s", i) for i in range(N - 1, 0, -1)], Gen("X^-1", 1)]}[g.tag]
    for h in reversed(word):
        p = _monomial_reference(rep, h, p)
    return p


_MONOMIAL_TAGS = {"daha": {"X", "X^-1", "s", "tau", "omega", "omega^-1"},
                  "deg": {"X", "X^-1", "s", "sij", "s0", "pi", "pi^-1"},
                  "cyc": {"X", "X^-1", "s", "sij", "sigma", "sigma^-1"}}


def test_the_monomial_maps_are_the_tables_tags():
    from cycdaha.ops import GENERATORS, _Monomial

    for family, table in GENERATORS.items():
        assert {t for t, a in table.items() if isinstance(a, _Monomial)} == \
            _MONOMIAL_TAGS[family], family


def _coefficient(dom, a, b, c):
    """A coefficient of dom from the fractions a, b and the int c >= 1: a
    over QQ, a + b zeta over Q(zeta_3), (a + b t)/(t + c) over Q(t)."""
    if dom is QQ:
        return a
    if dom.name == "QQ(zeta_3)":
        return a + b * CycloNumber.zeta(3)
    t = dom.gen
    return (a + b * t) / (t + c)


_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * 3), _SMALL, _SMALL,
                          st.integers(1, 3)), min_size=1, max_size=5))
def test_a_monomial_map_equals_its_reference_and_caches_no_image(terms):
    """Every monomial-map tag (X^+-1, s, s_ij, omega^+-1, tau, sigma^+-1 and
    the degenerate s_0, pi^+-1) at every index, applied through its exponent
    table to a random polynomial over QQ, Q(zeta_3) or Q(t) on a fresh rep,
    equals the polynomial its reference builds, and leaves no image in the
    rep's cache."""
    for rep in _monomial_reps():
        N = rep.N
        p = LaurentPoly(N, rep.dom, {e[:N]: _coefficient(rep.dom, a, b, c)
                                     for e, a, b, c in terms})
        gens = {Gen(t, i, j) for t in _MONOMIAL_TAGS[rep.family]
                for i in range(N + 1) for j in range(N + 1)}
        for g in sorted(g for g in gens if index_ok(g, N)):
            expected = _monomial_reference(rep, g, p)
            for _ in range(2):
                assert rep.apply_gen(g, p) == expected, (rep.dom.name, g, p)
                assert rep._cache[g] == {}


def test_a_scaled_monomial_map_stores_no_zero_coefficient():
    """At q = 0, omega sends X_1 to q X_2 = 0: the image of X_1 + X_2 is X_1
    alone, and that of X_1 is the zero polynomial (no zero numerator kept)."""
    rep = Rep.daha(2, 0, Fraction(3, 2))
    assert rep.apply_gen(Gen("omega"), rep.var(1) + rep.var(2)).nums == {(1, 0): 1}
    assert not rep.apply_gen(Gen("omega"), rep.var(1))


def _reference_word(rep, word, p):
    """word applied to p one generator at a time: each step sums c * (image
    of X^e) over the terms c X^e in a plain dict of field coefficients, read
    through .terms from a monomial image of rep."""
    zero = rep.dom.zero
    terms = dict(p.terms)
    for g in reversed(word):
        out = {}
        for e, c in terms.items():
            for f, v in rep.apply_gen(g, rep.monomial(e)).terms.items():
                out[f] = out.get(f, zero) + c * v
        terms = {f: v for f, v in out.items() if v}
    return terms


@settings(deadline=None)
@given(st.data())
def test_composition_matches_a_termwise_reference(data):
    """Rep.apply_word, whose map_linear sums cached images in one loop over
    the lcm of their dens, agrees with summing monomial images one term at a
    time, on random words over every table tag and multi-term polynomials
    (den > 1 over QQ)."""
    N = data.draw(st.sampled_from((2, 3)))
    k = data.draw(st.integers(0, len(list(_engine_reps(N))) - 1))
    rep, ref = (list(_engine_reps(N))[k] for _ in range(2))
    gens = _engine_generators(rep.family, N)
    word = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(-2, 2)] * N),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
        min_size=2, max_size=4))
    p = LaurentPoly(N, rep.dom, terms)
    assume(rep.dom is not QQ or p.den > 1)
    out = rep.apply_word(word, p)
    assert dict(out.terms) == _reference_word(ref, word, p)
    assert out.den > 0 and (rep.dom is not QQ or math.gcd(out.den, *out.nums.values()) == 1)


def _word_kinds(family, N):
    """The family's generators at rank N as (unit-scalar monomial maps,
    composites, all), the first two the kinds whose runs a word's plan
    fuses."""
    from cycdaha.ops import GENERATORS, _Composite, _Monomial

    table = GENERATORS[family]
    gens = _engine_generators(family, N)
    maps = [g for g in gens if isinstance(table[g.tag], _Monomial) and not table[g.tag].scaled]
    composites = [g for g in gens if isinstance(table[g.tag], _Composite)]
    return maps, composites, gens


def _unplanned_word(rep, word, terms):
    """word applied to terms, a dict {exponent: coefficient}, one generator
    at a time with no word plan: a composite is expanded into the words of
    its OperatorExpr, each applied the same way, and any other generator
    is applied by apply_gen to one monomial at a time."""
    from cycdaha.ops import GENERATORS, _Composite

    dom = rep.dom
    for g in reversed(word):
        action = GENERATORS[rep.family][g.tag]
        out = {}
        for e, c in terms.items():
            if isinstance(action, _Composite):
                image = {}
                for w, k in action.build(rep, g).terms.items():
                    for f, v in _unplanned_word(rep, w, {e: dom.coerce(k)}).items():
                        image[f] = image.get(f, dom.zero) + v
            else:
                image = rep.apply_gen(g, rep.monomial(e)).terms
            for f, v in image.items():
                out[f] = out.get(f, dom.zero) + c * v
        terms = {f: v for f, v in out.items() if v}
    return terms


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_a_planned_word_matches_the_generator_by_generator_reference(data):
    """Rep.apply_word, which fuses a run of unit-scalar monomial maps into
    one exponent table and caches a run of composites like one composite,
    equals the word applied one generator at a time on a second rep that
    builds no plan (_unplanned_word): on random words over every family's
    table built from runs of maps, runs of composites and single
    generators, applied to unit monomials twice (so the run caches fill and
    are read back) and then to multi-term polynomials."""
    N = data.draw(st.sampled_from((2, 3)))
    k = data.draw(st.integers(0, len(list(_engine_reps(N))) - 1))
    rep, ref = (list(_engine_reps(N))[k] for _ in range(2))
    maps, composites, gens = _word_kinds(rep.family, N)
    runs = [st.lists(st.sampled_from(maps), min_size=2, max_size=3),
            st.lists(st.sampled_from(gens), min_size=1, max_size=1)]
    if composites:
        runs.append(st.lists(st.sampled_from(composites), min_size=2, max_size=3))
    word = tuple(g for run in data.draw(st.lists(st.one_of(runs), min_size=1, max_size=3))
                 for g in run)
    exps = st.tuples(*[st.integers(-1, 1)] * N)
    monomials = data.draw(st.lists(exps, min_size=1, max_size=3, unique=True))
    one = rep.dom.one
    for _ in range(2):
        for e in monomials:
            assert dict(rep.apply_word(word, rep.monomial(e)).terms) == \
                _unplanned_word(ref, word, {e: one})
    p = LaurentPoly(N, rep.dom, data.draw(st.dictionaries(
        st.one_of(st.sampled_from(monomials), exps),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
        min_size=2, max_size=3)))
    assert dict(rep.apply_word(word, p).terms) == _unplanned_word(ref, word, dict(p.terms))
    assert not ref._plans and not any(type(k) is tuple for k in ref._slots)
    kinds = [0 if g in maps else 1 if g in composites else None for g in word]
    if any(a is not None and a == b for a, b in zip(kinds, kinds[1:])):
        assert id(word) in rep._plans and any(type(k) is tuple for k in rep._slots)


def test_a_composite_run_caches_only_unit_monomials():
    """The run Y_1 Y_2 of a word's plan keeps the image of each monomial with
    coefficient 1 it is applied to, and only those: a polynomial with a term
    outside its cache is evaluated factor by factor and leaves the cache
    as it was, and one with every term cached sums the cached images.  The
    run's slot reaches the rep through its weak reference, so the rep is
    freed without the cycle collector."""
    import gc
    import weakref

    rep, ref = daha_rep(3, l=1), daha_rep(3, l=1)
    run = (Gen("Y", 1), Gen("Y", 2))
    word = (Gen("X", 1), *run)
    a, b = rep.monomial((1, 0, -1)), rep.monomial((0, 2, 1))
    img = rep.apply_word(word, a)
    assert img == ref.apply_gen(Gen("X", 1), ref.apply_word(run[:1], ref.apply_gen(run[1], a)))
    assert rep._cache[run] == {(1, 0, -1): rep.apply_word(run, a)}
    assert rep.apply_word(run, a) is rep._cache[run][(1, 0, -1)]

    def check(p, word):
        cached = dict(rep._cache[run])
        assert rep.apply_word(word, p) == combination(
            3, ref.dom, [(c, ref.apply_word(run, ref.monomial(e))) for e, c in p.terms.items()])
        assert rep._cache[run] == cached

    for p in (a * Fraction(2, 3), a * -3, a + b, a - b * 3):
        check(p, run)
    plans = dict(rep._plans)
    rep.apply_word([Gen("X", 2), *run], b)
    assert rep._cache[run].keys() == {(1, 0, -1), (0, 2, 1)}
    assert rep._plans == plans  # a list, which could change, keeps no plan
    check(a + b * 3, list(run))
    gc.disable()
    try:
        rep_ref = weakref.ref(rep)
        del rep
        assert rep_ref() is None
    finally:
        gc.enable()


def test_a_word_with_a_generator_outside_the_rep_raises_every_time():
    """A word whose plan meets a Gen outside the family or out of range
    raises on every call and keeps no plan, no run and no cache for it."""
    rep = daha_rep(2)
    for bad, error in ((Gen("DO", 1), FamilyMismatch), (Gen("X", 3), ValueError)):
        word = (Gen("X", 1), Gen("X", 2), bad, Gen("Y", 1), Gen("Y", 2))
        for _ in range(2):
            with pytest.raises(error):
                rep.apply_word(word, rep.var(1))
            assert bad not in rep._cache and id(word) not in rep._plans
            assert not any(type(k) is tuple and bad in k for k in rep._slots)


def test_y_and_dtrig_share_one_image_cache(monkeypatch):
    """deg's Dtrig_i is y_i: the two share one slot, so y_2 and then Dtrig_2
    on one unit monomial make one fresh image and return the same object."""
    calls = []
    dunkl = Rep._dunkl

    def counted(self, i, p, trig=False):
        calls.append((i, trig))
        return dunkl(self, i, p, trig)

    monkeypatch.setattr(Rep, "_dunkl", counted)
    rep = Rep.degenerate(2, Fraction(3, 4), Fraction(2, 3))
    m = rep.monomial((2, -1))
    img = rep.apply_gen(Gen("y", 2), m)
    assert rep.apply_gen(Gen("Dtrig", 2), m) is img
    assert calls == [(2, True)]
    assert rep._cache[Gen("Dtrig", 2)] is rep._cache[Gen("y", 2)]
    assert rep.apply_gen(Gen("Dtrig", 1), m) != img and len(calls) == 2


def _suffix_reps():
    """daha at l = 1, deg at l = 2 and cyc over Q(zeta_3), N = 2."""
    yield Rep.daha(2, Fraction(7, 5), Fraction(3, 2), (Fraction(2, 3),))
    yield Rep.degenerate(2, Fraction(3, 4), Fraction(2, 3), (Fraction(1, 3), Fraction(5, 2)))
    yield Rep.cyclotomic_cherednik(2, 3, Fraction(2, 3), Fraction(1, 2),
                                   (Fraction(1, 2), 3, Fraction(-2, 5)))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_apply_along_shared_suffixes_equals_the_word_by_word_sum(data):
    """Rep.apply, which applies a suffix shared by several words once, equals
    the combination of the words applied one by one (on a second rep, so no
    cache is shared): on sums of words over three generators of the family
    that hold the empty word, a word and its suffix one shorter, and a
    repeated generator."""
    k = data.draw(st.integers(0, 2))
    rep, ref = (list(_suffix_reps())[k] for _ in range(2))
    gens = data.draw(st.lists(st.sampled_from(_engine_generators(rep.family, 2)),
                              min_size=3, max_size=3, unique=True))
    word = st.lists(st.sampled_from(gens), max_size=4).map(tuple)
    words = data.draw(st.lists(word, max_size=5))
    longer = data.draw(word.filter(len))
    g = gens[0]
    words += [(), longer, longer[1:], (g, g), (gens[1], g, g)]
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    expr = OperatorExpr({w: data.draw(coeff) for w in words})
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(-2, 2)] * 2),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
        min_size=1, max_size=3))
    p = LaurentPoly(2, rep.dom, terms)
    expected = combination(
        2, ref.dom, [(c, ref.apply_word(w, p)) for w, c in expr.terms.items()])
    assert rep.apply(expr, p) == expected


def test_apply_applies_a_shared_suffix_once():
    """In a [T_1 omega] + b [T_1^-1 omega] + c [omega] + d, the shared omega
    acts once: three generator applications, not five."""
    rep = daha_rep(2)
    calls = []

    def counted(g, p):
        calls.append(g)
        return Rep.apply_gen(rep, g, p)

    rep.apply_gen = counted
    T, Ti, w = Gen("T", 1), Gen("T^-1", 1), Gen("omega")
    expr = OperatorExpr({(T, w): 2, (Ti, w): Fraction(1, 3), (w,): -1, (): 5})
    p = rep.monomial((1, -2))
    out = rep.apply(expr, p)
    assert sorted(calls) == sorted([w, T, Ti])
    ref = daha_rep(2)
    assert out == combination(
        2, ref.dom, [(c, ref.apply_word(w, p)) for w, c in expr.terms.items()])


def test_one_expression_applies_in_two_fields():
    """The plan Rep.apply keeps on an expression holds coefficients split in
    one field, so the same OperatorExpr object applied in a rep over QQ and
    in one over Q(t) (tb = t), and then over QQ again, must give each
    field's own images: an expression with a scalar term, a suffix shared
    by two words and a one-word leaf."""
    t = RatFuncField("t").gen
    reps = [daha_rep(2), Rep.daha(2, Fraction(7, 5), t), daha_rep(2)]
    refs = [daha_rep(2), Rep.daha(2, Fraction(7, 5), t), daha_rep(2)]
    T, Ti, om, X = Gen("T", 1), Gen("T^-1", 1), Gen("omega"), Gen("X", 2)
    expr = OperatorExpr({(T, om): 2, (Ti, om): Fraction(1, 3), (X,): -1, (): Fraction(5, 2)})
    for rep, ref in zip(reps, refs):
        for e in box_monomials(2, 1):
            p = rep.monomial(e)
            expected = combination(
                2, ref.dom, [(c, ref.apply_word(w, p)) for w, c in expr.terms.items()])
            out = rep.apply(expr, p)
            assert out.dom is rep.dom and out == expected
    assert reps[0].apply(expr, reps[0].one()) != reps[1].apply(expr, reps[1].one())


def _factored_reps():
    """daha over QQ at l = 1, cyc over Q(zeta_3) and daha over Q(t) with
    tb = t, N = 2, each with a scalar of its field beyond QQ (or None)."""
    t = RatFuncField("t").gen
    yield Rep.daha(2, Fraction(7, 5), Fraction(3, 2), (Fraction(2, 3),)), None
    yield Rep.cyclotomic_cherednik(2, 3, Fraction(2, 3), Fraction(1, 2),
                                   (Fraction(1, 2), 3, Fraction(-2, 5))), CycloNumber.zeta(3, 1)
    yield Rep.daha(2, Fraction(7, 5), t), t


_PARSED = {
    "daha": ["(3/2)*[T1 Y1] + [X1] - 2*[Y1^-1]", "[pi] - [omega^-1 X2] + 1/2",
             "[D1^(l) T1^-1] - 3"],
    "cyc": ["[DO1 sigma2] - 3*[s1]", "(2/3)*[X1^-1 DO2] + 2 - [sigma1^-1]"],
}


def _reference_add(out, w, c):
    """out[w] += c in place, a zero sum dropped."""
    s = out[w] + c if w in out else c
    if s:
        out[w] = s
    else:
        out.pop(w, None)


def _reference_product(a, b):
    """The terms of a times b as OperatorExpr expanded them eagerly: every
    word of a followed by every word of b, like words summed, zeros dropped."""
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            _reference_add(out, w1 + w2, c1 * c2)
    return out


def _draw_expr(data, rep, special, gens, depth):
    """A random expression and its eagerly expanded reference terms: a leaf
    is a short sum of words, a y_f product (daha) or a parsed expression;
    above it, products, sums, scalar multiples on either side and powers."""
    from cycdaha.exprparse import parse_expr
    from cycdaha.macdonald import y_f

    scalars = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if special is not None:
        scalars = st.one_of(scalars, st.just(special))
    kind = data.draw(st.sampled_from(["words", "y_f", "parsed"] + ["op"] * 3 * bool(depth)))
    if kind == "y_f" and rep.family == "daha":
        f = data.draw(st.lists(scalars, min_size=1, max_size=3))
        e = y_f(rep, data.draw(st.integers(1, 2)), f)
        return e, dict(e.terms)
    if kind == "parsed":
        e = parse_expr(data.draw(st.sampled_from(_PARSED[rep.family])))
        return e, dict(e.terms)
    if kind != "op":
        word = st.lists(st.sampled_from(gens), max_size=2).map(tuple)
        words = data.draw(st.lists(word, min_size=1, max_size=3))
        terms = {w: data.draw(scalars.filter(bool)) for w in words}
        return OperatorExpr(terms), terms
    op = data.draw(st.sampled_from(["mul", "add", "lscale", "rscale", "pow"]))
    a, ra = _draw_expr(data, rep, special, gens, depth - 1)
    if op == "pow":
        n = data.draw(st.integers(0, 2))
        ref = {(): 1}
        for _ in range(n):
            ref = _reference_product(ref, ra)
        return a ** n, ref
    if op in ("lscale", "rscale"):
        c = data.draw(scalars)
        # a zero scalar gives the zero expression
        if op == "lscale":
            return c * a, {w: c * v for w, v in ra.items() if c}
        return a * c, {w: v * c for w, v in ra.items() if c}
    b, rb = _draw_expr(data, rep, special, gens, depth - 1)
    if op == "mul":
        return a * b, _reference_product(ra, rb)
    out = dict(ra)
    for w, c in rb.items():
        _reference_add(out, w, c)
    return a + b, out


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_factored_products_evaluate_like_their_expansion(data):
    """Rep.apply of an expression as built (products kept as factors)
    equals Rep.apply of its expansion OperatorExpr(expr.terms), applied on a
    second rep so no cache is shared; and the expansion (terms, ==, repr)
    is the one the eager product gave, in the same order."""
    k = data.draw(st.integers(0, 2))
    (rep, special), (ref, _) = (list(_factored_reps())[k] for _ in range(2))
    gens = data.draw(st.lists(st.sampled_from(_engine_generators(rep.family, 2)),
                              min_size=3, max_size=3, unique=True))
    expr, terms = _draw_expr(data, rep, special, gens, 3)
    assert list(expr.terms.items()) == list(terms.items())
    assert expr == OperatorExpr(terms) and repr(expr) == repr(OperatorExpr(terms))
    p = LaurentPoly(2, rep.dom, data.draw(st.dictionaries(
        st.tuples(*[st.integers(-2, 2)] * 2),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
        min_size=1, max_size=3)))
    assert rep.apply(expr, p) == ref.apply(OperatorExpr(expr.terms), p)


def test_apply_is_entered_once_per_call(monkeypatch):
    """Rep.apply evaluates kept products and composite generators through
    an internal method, so the public Rep.apply is entered once per call
    (a benchmark harness counts two per compared monomial): a product of
    sums, and a Dl_2 and pi_- whose images, cold, come from expressions."""
    calls = []
    apply = Rep.apply

    def counted(self, expr, p):
        calls.append(expr)
        return apply(self, expr, p)

    monkeypatch.setattr(Rep, "apply", counted)
    rep = daha_rep(3, l=2)
    Y, T = OperatorExpr.gen("Y", 1), OperatorExpr.gen("T", 2)
    product = (Y - 2) * (T + Fraction(1, 3)) * (Y + T)
    assert product._factors is not None
    p = rep.monomial((1, 0, -1))
    for expr in (product, Gen("Dl", 2), OperatorExpr.gen("pi-")):
        calls.clear()
        rep.apply(expr, p)
        assert calls == [expr]
    assert {Gen("Dl", 1), Gen("Dl", 2), Gen("pi-")} <= rep._exprs.keys()


def test_a_long_power_of_a_sum_applies_without_deep_recursion():
    """A power keeps one factor per multiplication, and Rep.apply loops
    down that chain: (X_1 + X_1 s_1 s_1)^n, n beyond the interpreter's
    recursion limit, is 2^n X_1^n."""
    import sys

    rep = daha_rep(2)
    twice = OperatorExpr.gen("X", 1) + OperatorExpr.word([Gen("X", 1), Gen("s", 1), Gen("s", 1)])
    n = sys.getrecursionlimit() + 200
    power = twice ** n
    assert rep.apply(power, rep.one()) == rep.monomial((n, 0), 2 ** n)
