"""Cross-family consistency through the parameter change z <-> c.

At rank one the wreath-product Dunkl operator and the degenerate level
generator realize the same difference operator on invariants: with
X = x^l and z_i = (1/l)(l - i + sum_j c_j zeta^{ij}),

    D_cyc^l restricted to C[x^{+-l}]  =  l^l * X^{-1}(E - z_1)...(E - z_l)

where E = X d/dX.  This exercises the Dunkl-Opdam implementation over
Q(zeta_l) and the degenerate level generator against each other.
"""

from fractions import Fraction

from cycdaha.ops import Gen, Rep
from cycdaha.scalars import z_from_c


def _check_rank_one(l, c, kpar=Fraction(2, 3)):
    zs = z_from_c(c, l)
    rep_cyc = Rep.cyclotomic_cherednik(1, l, 1, kpar, c)
    rep_deg = Rep.degenerate(1, 1, kpar, z=zs)
    scale = Fraction(l) ** l
    for k in range(-3, 5):
        # x^(l k) on the wreath side corresponds to X^k on the level side
        p = rep_cyc.monomial((l * k,))
        for _ in range(l):
            p = rep_cyc.apply_gen(Gen("DO", 1), p)
        q = rep_deg.apply_gen(Gen("Dl", 1), rep_deg.monomial((k,)))
        # compare coefficients: p = coeff * x^(l(k-1)), q = coeff' * X^(k-1)
        pc = p.terms.get((l * (k - 1),), 0)
        qc = q.terms.get((k - 1,), 0)
        assert p.terms.keys() <= {(l * (k - 1),)}
        assert q.terms.keys() <= {(k - 1,)}
        assert pc == scale * qc, (l, k, pc, qc)


def test_rank_one_level_two():
    _check_rank_one(2, (Fraction(1, 2), Fraction(3, 5)))


def test_rank_one_level_one():
    _check_rank_one(1, (Fraction(2, 7),))


def test_rank_one_level_three_symmetric_weights():
    # conjugation-symmetric weights keep the z_i rational at l = 3
    _check_rank_one(3, (Fraction(1, 2), Fraction(2, 5), Fraction(2, 5)))


def test_rank_one_irrational_levels():
    # generic weights give z_i outside QQ; Rep.degenerate then works over Q(zeta_l)
    _check_rank_one(3, (Fraction(1, 2), Fraction(2, 5), Fraction(3, 7)))
    _check_rank_one(4, (Fraction(1, 2), Fraction(2, 5), Fraction(3, 7), Fraction(1, 3)))


def test_z_from_c_values():
    # l = 2, zeta = -1: z_1 = (1 + c_0 - c_1)/2, z_2 = (c_0 + c_1)/2
    c0, c1 = Fraction(1, 2), Fraction(3, 5)
    z1, z2 = z_from_c((c0, c1), 2)
    assert z1 == (1 + c0 - c1) / 2
    assert z2 == (c0 + c1) / 2
    # hbar scales the affine part
    z1h, z2h = z_from_c((c0, c1), 2, hbar=Fraction(3))
    assert z1h == (3 + c0 - c1) / 2
    assert z2h == z2
