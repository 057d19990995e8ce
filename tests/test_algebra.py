import hashlib
import json
from fractions import Fraction

import pytest

from cycdaha.algebra import (
    _PHI,
    FAMILIES,
    UnknownFamily,
    apply_gen_map,
    basis_monomials,
    catalog,
    cd11_instance,
    independence_check,
    jucys_murphy_consistency,
    sample_rep,
    verify_family,
    verify_involution,
)
from cycdaha.ops import FamilyMismatch, Gen, OperatorExpr, Rep, box_monomials, op_equal_on_box
from cycdaha.scalars import RatFuncField


def test_catalog_counts():
    assert len(catalog("daha").schemas) == 12
    assert len(catalog("deg-cyc").schemas) == 11
    names = [s.name for s in catalog("cyc-daha").schemas]
    assert len(names) == 19
    assert names[:9] == ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R11", "R12"]
    assert names[9:] == [f"cd{i}" for i in range(1, 11)]
    assert len(catalog("lastrel").schemas) == 1
    with pytest.raises(UnknownFamily):
        catalog("nope")


def test_lastrel_catalog_content():
    rep = sample_rep("l1", 2, 1, seed=1)
    (inst,) = catalog("lastrel").instances(rep)
    assert inst.name == "lastrel"
    assert op_equal_on_box(rep, inst.lhs, inst.rhs, 2)["result"]


def test_cyclotomic_families_need_positive_level():
    for family in ("cyc-daha", "deg-cyc"):
        with pytest.raises(ValueError):
            sample_rep(family, 2, 0, seed=1)


def test_fixed_level_families_reject_other_levels():
    # daha would draw two Z values its catalog never reads; l1 has Z = (1,)
    for family in ("daha", "l1"):
        with pytest.raises(ValueError, match="has level"):
            sample_rep(family, 2, 2)


def test_deg_daha_contains_pi_y_relation():
    rep = sample_rep("deg-daha", 2, seed=1)
    names = [i.name for i in catalog("deg-daha").instances(rep)]
    assert "pi-yN" in names  # pi y_N = (y_1 - hbar) pi
    assert "pi-word" in names and "s0-word" in names
    assert "secrel" in names  # [y_2, X_1] = k X_1 s_1


def test_deg_daha_passes_at_rank_one():
    """At N = 1 there is no affine reflection: s_0 = s_11 X_1^-1 X_1 is the
    identity, and s0-yN, which would read y_1 = y_1 - hbar + k, is not an
    instance (it used to fail at every seed)."""
    for seed in (1, 2, 3):
        rep = sample_rep("deg-daha", 1, seed=seed)
        assert "s0-yN" not in [i.name for i in catalog("deg-daha").instances(rep)]
        assert verify_family(rep, "deg-daha", "box", 3)["all_pass"], seed


@pytest.mark.parametrize("family,N,l", [
    ("daha", 2, 0), ("daha", 3, 0),
    ("deg-daha", 2, 0), ("deg-daha", 3, 0),
    ("deg-cyc", 2, 1), ("deg-cyc", 2, 2), ("deg-cyc", 3, 1), ("deg-cyc", 3, 2),
    ("l1", 2, 1), ("l1", 3, 1),
    ("lastrel", 2, 1), ("lastrel", 3, 1),
])
def test_families_verify_box(family, N, l):
    for seed in (1, 2, 3):
        rep = sample_rep(family, N, l, seed=seed)
        r = verify_family(rep, family, "box", box_radius=2)
        fails = [x for x in r["relations"] if x["status"] != "pass"]
        assert r["all_pass"], fails[:3]


def test_symbolic_parameters_give_verdicts_for_every_value():
    """Over Q(t) a pass holds for every value of the symbolic parameter:
    tb = t for daha at N = 2 and 3 (and every relation with a wrong scalar
    fails there at N = 2), k symbolic for deg-daha."""
    rep = Rep.daha(2, Fraction(2, 3), RatFuncField("t").gen)
    instances = list(catalog("daha").instances(rep))
    assert len(instances) == 10
    r = verify_family(rep, "daha", "box", box_radius=2)
    assert r["all_pass"] and len(r["relations"]) == 10
    for inst in instances:
        wrong = inst.rhs * Fraction(8, 7)
        assert not op_equal_on_box(rep, inst.lhs, wrong, 2)["result"], inst.name
    rep = Rep.degenerate(2, 1, RatFuncField("k").gen)
    r = verify_family(rep, "deg-daha", "box", box_radius=2)
    assert r["all_pass"] and len(r["relations"]) == 22
    rep = Rep.daha(3, Fraction(3, 2), RatFuncField("t").gen)
    r = verify_family(rep, "daha", "box", box_radius=2)
    assert r["all_pass"] and len(r["relations"]) == 24


def test_a_wrong_cd5_instance_fails():
    """Control: Dl_2 is built from the cached Dl_1, and cd5[1] says
    T_1^-1 Dl_1 T_1^-1 = Dl_2; scaled by 8/7 it must fail."""
    rep = sample_rep("cyc-daha", 3, 2, seed=1)
    (inst,) = [r for r in catalog("cyc-daha").instances(rep) if r.name == "cd5[1]"]
    assert op_equal_on_box(rep, inst.lhs, inst.rhs, 2)["result"]
    assert not op_equal_on_box(rep, inst.lhs, inst.rhs * Fraction(8, 7), 2)["result"]


def test_verify_family_reports_parameters_as_json_scalars():
    t = RatFuncField("t").gen
    r = verify_family(Rep.daha(2, Fraction(2, 3), t), "daha", "box", box_radius=0)
    assert r["params"] == {
        "q": {"var": "t", "num": ["2/3"], "den": ["1"]},
        "tb": {"var": "t", "num": ["0", "1"], "den": ["1"]},
        "t": {"var": "t", "num": ["0", "0", "1"], "den": ["1"]},
    }
    r = verify_family(Rep.daha(2, Fraction(2, 3), 3), "daha", "box", box_radius=0)
    assert r["params"] == {"q": "2/3", "tb": "3", "t": "9"}


def test_verify_family_rejects_a_sweep_that_checks_nothing():
    """A negative box radius or zero trials would check no monomial; the
    library raises ValueError instead of reporting all_pass."""
    rep = sample_rep("daha", 2, 0, seed=1)
    with pytest.raises(ValueError):
        verify_family(rep, "daha", "box", box_radius=-2)
    with pytest.raises(ValueError):
        verify_family(rep, "daha", "random", trials=0)


@pytest.mark.parametrize("N,l", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_cyc_daha_randomized(N, l):
    rep = sample_rep("cyc-daha", N, l, seed=5)
    r = verify_family(rep, "cyc-daha", "random", trials=5, seed=7)
    fails = [x for x in r["relations"] if x["status"] != "pass"]
    assert r["all_pass"], fails[:3]


@pytest.mark.parametrize("l", [1, 2])
def test_cyc_daha_box_mode(l):
    for seed in (1, 2, 3):
        rep = sample_rep("cyc-daha", 2, l, seed=seed)
        r = verify_family(rep, "cyc-daha", "box", box_radius=2)
        fails = [x for x in r["relations"] if x["status"] != "pass"]
        assert r["all_pass"], fails[:3]


def test_cyc_daha_box_mode_rank_three():
    rep = sample_rep("cyc-daha", 3, 2, seed=4)
    r = verify_family(rep, "cyc-daha", "box", box_radius=1)
    fails = [x for x in r["relations"] if x["status"] != "pass"]
    assert r["all_pass"], fails[:3]


def test_cd11_phi_image_of_cd10():
    rep = sample_rep("cyc-daha", 2, 2, seed=5)
    inst = cd11_instance(rep)
    assert op_equal_on_box(rep, inst.lhs, inst.rhs, 2)["result"]


def test_jucys_murphy_consistency():
    for N in (2, 3, 4):
        rep = sample_rep("daha", N, seed=1)
        assert jucys_murphy_consistency(rep, box_radius=1 if N == 4 else 2)["result"]


@pytest.mark.parametrize("family,N,l", [
    ("l1", 2, 1), ("l1", 3, 1),
    ("deg-cyc", 2, 1), ("deg-cyc", 2, 2),
    ("cyc-daha", 2, 1), ("cyc-daha", 2, 2),
])
def test_involutions(family, N, l):
    rep = sample_rep(family, N, l, seed=3)
    r = verify_involution(rep, family)
    fails = [x for x in r["relations"] if x["status"] == "fail"]
    assert r["all_pass"], fails[:3]


def test_involution_rejects_a_relation_outside_its_domain(monkeypatch):
    """A relation with a generator phi does not map (pi) fails loudly; no
    report entry passes it over."""
    from cycdaha import algebra

    pi = OperatorExpr.gen("pi")
    schema = algebra.RelationSchema(
        "outside", lambda rep: [algebra.RelationInstance("pi = pi", pi, pi)])
    monkeypatch.setitem(algebra.FAMILIES, "cyc-daha",
                        algebra.FAMILIES["cyc-daha"]._replace(schemas=lambda: [schema]))
    with pytest.raises(ValueError, match="outside the involution domain"):
        verify_involution(sample_rep("cyc-daha", 2, 1, seed=3), "cyc-daha")


def test_involution_rejects_a_representation_of_another_family():
    """verify_involution checks the representation family, as verify_family
    does, before anything reads a parameter the rep lacks."""
    for rep, family in ((sample_rep("daha", 2, seed=1), "deg-cyc"),
                        (sample_rep("deg-cyc", 2, 1, seed=1), "cyc-daha")):
        with pytest.raises(FamilyMismatch, match="incompatible"):
            verify_involution(rep, family)
        with pytest.raises(FamilyMismatch, match="incompatible"):
            verify_family(rep, family, "box", box_radius=0)


def test_involution_of_a_family_without_one_is_a_value_error():
    """A known family with no involution catalog is outside the involution's
    domain (ValueError), not an unknown family name."""
    with pytest.raises(ValueError, match="no involution"):
        verify_involution(sample_rep("daha", 2, seed=1), "daha")


def test_phi_involution_images():
    rep = sample_rep("cyc-daha", 2, 1, seed=3)
    gen_map, target, _ = _PHI[rep.family]
    rep2 = target(rep)
    assert rep2.params["q"] == 1 / rep.params["q"]
    phi = gen_map(rep)
    assert apply_gen_map(OperatorExpr.gen("X", 1), phi) == OperatorExpr.gen("Dl", 1)
    # phi(phi(T_1)) = T_1 syntactically
    timg = apply_gen_map(OperatorExpr.gen("T", 1), phi)
    t2 = apply_gen_map(timg, gen_map(rep2))
    assert t2 == OperatorExpr.gen("T", 1)


def test_basis_monomials_xd_missing():
    out = basis_monomials("MX_MD_missing", 1, 1, {"X": 2, "D": 2})
    labels = sorted(lab for _, lab in out)
    assert labels == [(-2,), (-1,), (0,), (1,), (2,)]
    assert len(out) == 5
    # per-index exclusivity: no word contains both X_i and D_i
    for expr, _ in out:
        for word in expr.terms:
            tags = {(g.tag, g.i) for g in word}
            assert not ({("X", 1), ("Dl", 1)} <= tags)


def test_basis_monomials_xysd_degree_zero():
    out = basis_monomials("MX_My_s_MD", 2, 1, {"X": 0, "D": 0})
    # y-cap is l - 1 = 0, so only the permutation part remains: {1, s_1}
    assert len(out) == 2
    words = sorted(tuple(w) for expr, _ in out for w in expr.terms)
    assert words == [(), (Gen("s", 1),)]


def test_basis_monomials_hecke_shape_count():
    out = basis_monomials("MX_MY_Ts_MD", 1, 2, {"X": 1, "Y": 1, "D": 1})
    # N = 1: X-exponent in {0,1}, Y-exponent in {0,1}, trivial group, D in {0,1}
    assert len(out) == 8
    # brute-force count 3*2*1*2 with the X cap raised to 2
    out = basis_monomials("MX_MY_Ts_MD", 1, 2, {"X": 2, "Y": 1, "D": 1})
    assert len(out) == 12
    # the Y cap never exceeds l - 1
    out = basis_monomials("MX_MY_Ts_MD", 1, 1, {"X": 1, "Y": 5, "D": 1})
    assert len(out) == 4


def test_independence_check_examples():
    rep = sample_rep("l1", 1, 1, seed=1)
    exprs = [
        OperatorExpr.one(),
        OperatorExpr.gen("X", 1),
        OperatorExpr.gen("Dl", 1),
    ]
    probes = [rep.one(), rep.var(1), rep.var(1) ** 2]
    r = independence_check(rep, exprs, probes)
    assert r["rank"] == 3 and r["independent"]
    r2 = independence_check(rep, exprs + [OperatorExpr.gen("X", 1)], probes)
    assert r2["rank"] == 3 and not r2["independent"]


def test_independence_of_degenerate_pbw_monomials():
    # the degenerate shape X^a y^b w D^c at N=2, l=1 (y-cap 0)
    rep = sample_rep("deg-cyc", 2, 1, seed=2)
    out = basis_monomials("MX_My_s_MD", 2, 1, {"X": 1, "D": 1})
    exprs = [e for e, _ in out]
    probes = [
        rep.monomial((a, b)) for a in range(0, 7) for b in range(0, 7)
    ]
    r = independence_check(rep, exprs, probes)
    assert r["count"] == 32
    assert r["independent"], r


def test_independence_of_pbw_monomials():
    rep = sample_rep("l1", 2, 1, seed=2)
    out = basis_monomials("MX_MY_Ts_MD", 2, 1, {"X": 1, "Y": 0, "D": 1})
    exprs = [e for e, _ in out]
    probes = [rep.monomial(e) for e in
              [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2),
               (2, 2), (3, 0), (0, 3), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3),
               (4, 0), (0, 4), (4, 1), (1, 4), (4, 2), (2, 4), (4, 3), (3, 4),
               (4, 4), (5, 5), (5, 0), (0, 5), (5, 1), (1, 5), (5, 2), (2, 5)]]
    r = independence_check(rep, exprs, probes)
    assert r["independent"], r


# SHA-256 of the full catalog expansion: every instance's name and exact
# lhs/rhs terms, the involution image of each lhs, cd11, and four PBW bases.
# The constant was computed on the catalogs before they were rebuilt from
# shared relation-shape builders; any change to an instance name, order,
# word or coefficient changes it.  Since s0-yN starts at N = 2, the constant
# is the one of those catalogs without the deg-daha instance of s0-yN at
# N = 1, and the count one less.
CATALOG_SHA256 = "33532cffe76ab340fab64446f099cb03812915ec1b17ce8130adeb6c525fc4e5"
CATALOG_INSTANCES = 1092

_FINGERPRINT_REPS = (
    [("daha", 0), ("deg-daha", 0)]
    + [(f, l) for f in ("deg-cyc", "cyc-daha") for l in (1, 2, 3)]
    + [("l1", 1), ("lastrel", 1)]
)


def _terms(expr):
    return sorted((repr(w), str(c)) for w, c in expr.terms.items())


def catalog_fingerprint():
    h = hashlib.sha256()
    count = 0
    for family, l in _FINGERPRINT_REPS:
        cat = catalog(family)
        h.update(repr((family, [s.name for s in cat.schemas])).encode())
        for N in range(1, 5):
            rep = sample_rep(family, N, l, seed=1)
            for inst in cat.instances(rep):
                count += 1
                h.update(repr((family, N, l, inst.name, _terms(inst.lhs),
                               _terms(inst.rhs))).encode())
                if FAMILIES[family].phi:
                    img = apply_gen_map(inst.lhs, _PHI[rep.family][0](rep))
                    h.update(repr(_terms(img)).encode())
            if family == "cyc-daha":
                inst = cd11_instance(rep)
                h.update(repr((inst.name, _terms(inst.lhs), _terms(inst.rhs))).encode())
    for shape, N, l, caps in (
        ("MX_MD_missing", 2, 1, {"X": 1, "D": 2}),
        ("MX_My_s_MD", 3, 2, {"X": 1, "D": 1}),
        ("MX_MY_Ts_MD", 3, 2, {"X": 1, "Y": 1, "D": 0}),
        ("MX_MY_Ts_MD", 2, 3, {"X": 0, "D": 1}),
    ):
        for expr, label in basis_monomials(shape, N, l, caps):
            h.update(repr((shape, _terms(expr), label)).encode())
    return count, h.hexdigest()


def test_catalog_fingerprint():
    assert catalog_fingerprint() == (CATALOG_INSTANCES, CATALOG_SHA256)


# SHA-256 over the lhs and rhs images (to_json) of every catalog instance on
# every monomial of the B = 1 box: daha and deg-daha at N = 2, 3 and
# cyc-daha at N = 2, 3 and l = 1, 2, each at sample_rep seed 1.  The
# constant was computed while LaurentPoly stored Fraction coefficients, under
# PYTHONHASHSEED 0 and 1; any change to a word image changes it.
WORD_IMAGE_SHA256 = "0191bc6249195b9f6d9c6f4ac6442038af9f5f1e91d6b89a5fd13fa871d04273"
WORD_IMAGES = 5004


def test_word_image_fingerprint():
    h = hashlib.sha256()
    count = 0
    reps = [(f, N, 0) for f in ("daha", "deg-daha") for N in (2, 3)]
    reps += [("cyc-daha", N, l) for N in (2, 3) for l in (1, 2)]
    for family, N, l in reps:
        rep = sample_rep(family, N, l, seed=1)
        for inst in catalog(family).instances(rep):
            for e in box_monomials(N, 1):
                p = rep.monomial(e)
                h.update(json.dumps(
                    [family, N, l, inst.name, list(e),
                     rep.apply(inst.lhs, p).to_json(), rep.apply(inst.rhs, p).to_json()],
                    sort_keys=True).encode())
                count += 1
    assert (count, h.hexdigest()) == (WORD_IMAGES, WORD_IMAGE_SHA256)


@pytest.mark.parametrize("family", ["daha", "deg-daha", "cyc-daha", "deg-cyc", "l1", "lastrel"])
def test_every_relation_scaled_by_8_7_fails(family):
    """Mutation control: with its right side scaled by 8/7, every catalog
    instance at N = 2, 3 (levels 1 and 2 where the level is free) fails on
    the box of every radius B = 1, 2, 3, so a pass of the unscaled
    relation is not vacuous."""
    level = FAMILIES[family].level
    levels = [1, 2] if level is None else [level]
    checked = 0
    for N in (2, 3):
        for l in levels:
            rep = sample_rep(family, N, l, seed=1)
            for inst in catalog(family).instances(rep):
                wrong = inst.rhs * Fraction(8, 7)
                for B in (1, 2, 3):
                    assert not op_equal_on_box(rep, inst.lhs, wrong, B)["result"], (
                        family, N, l, inst.name, B)
                checked += 1
    assert checked == {"daha": 34, "deg-daha": 68, "cyc-daha": 130, "deg-cyc": 90,
                       "l1": 35, "lastrel": 2}[family]
