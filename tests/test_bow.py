from fractions import Fraction
from random import Random

import pytest

from cycdaha.bow import (
    CIRCLE_CROSS,
    CROSS_CIRCLE,
    BowData,
    BowDiagram,
    check_bow,
    cobalanced_reduction_check,
    hw_diagram,
    hw_inverse,
    hw_round_trip_check,
    hw_transition,
    linkage_invariants,
    sample_bow,
    sample_cobalanced_segment,
)
from cycdaha.linalg import Matrix
from cycdaha.quiver import UncertifiedInput


def bow(dims, seed):
    return sample_bow(dims, Fraction(2), Fraction(3), Fraction(5, 2), seed)


def test_sampled_bow_certifies():
    b = bow((2, 2, 2), 11)
    r = check_bow(b)
    assert r["certified"] and r["S1"] and r["S2"]


def test_round_trips():
    for dims in ((1, 1, 1), (2, 2, 2)):
        for seed in (11, 12, 13, 14, 15):
            r = hw_round_trip_check(bow(dims, seed))
            assert r["ok"], (dims, seed, r)


def test_round_trip_takes_the_kernel_of_beta_n_once(monkeypatch):
    """hw_inverse's kernel of beta_n is alpha of the recovered bow, so the
    round trip check builds beta_n once and takes its kernel once."""
    import cycdaha.bow as bow_module

    calls = []
    beta_n = bow_module._beta_n
    monkeypatch.setattr(bow_module, "_beta_n", lambda b: calls.append(b) or beta_n(b))
    for dims in ((1, 1, 1), (2, 2, 2)):
        calls.clear()
        assert hw_round_trip_check(bow(dims, 11))["ok"]
        assert len(calls) == 1, dims


def test_transition_dimension_count():
    b = bow((2, 2, 2), 11)
    new = hw_transition(b)
    assert new.dims == (2, 3, 2)  # d1 + d3 + 1 - d2
    back = hw_inverse(new)
    assert back.dims == b.dims


def test_degenerate_middle_space():
    b0 = BowData(
        CIRCLE_CROSS, (1, 0, 1), Fraction(2), Fraction(3), Fraction(5, 2),
        C=Matrix.zero(0, 1), D=Matrix.zero(1, 0), A=Matrix.zero(1, 0),
        a=Matrix([[1]]), b=Matrix.zero(1, 0),
        B1=Matrix([[6]]), B2=Matrix.zero(0, 0), B3=Matrix([[1]]),
    )
    assert check_bow(b0)["certified"]
    assert hw_round_trip_check(b0)["ok"]


def test_unstable_data_detected_with_witness():
    b = bow((1, 1, 1), 11)
    broken = BowData(
        CIRCLE_CROSS, b.dims, b.t, b.Z, b.Zp, b.C, b.D,
        Matrix.zero(1, 1), b.a, Matrix.zero(1, 1), b.B1, b.B2, b.B2,
    )
    r = check_bow(broken)
    assert not r["S1"]
    assert r["S1_witness"] == [[["1"]]]
    with pytest.raises(Exception):
        hw_transition(broken)


def test_s1_witness_bytes():
    # A = 0 and b = 0 on a sampled (2, 2, 2) bow: all of V2 is unstable
    b = bow((2, 2, 2), 11)
    broken = BowData(
        CIRCLE_CROSS, b.dims, b.t, b.Z, b.Zp, b.C, b.D,
        Matrix.zero(2, 2), b.a, Matrix.zero(1, 2), b.B1, b.B2, b.B3,
    )
    assert check_bow(broken)["S1_witness"] == [[["1"], ["0"]], [["0"], ["1"]]]
    # ker A = <e1, e2>, B2 e1 = 2 e1 and B2 e2 = e3: the iteration shrinks
    # the kernel to the B2-stable line <e1>
    z = Matrix.zero
    shrinking = BowData(
        CIRCLE_CROSS, (1, 3, 1), Fraction(2), Fraction(3), Fraction(5, 2),
        C=z(3, 1), D=z(1, 3), A=Matrix([[0, 0, 1]]), a=Matrix([[1]]), b=z(1, 3),
        B1=Matrix([[1]]), B2=Matrix([[2, 0, 0], [0, 0, 0], [0, 1, 0]]), B3=Matrix([[1]]),
    )
    r = check_bow(shrinking)
    assert (r["S1"], r["S2"]) == (False, True)
    assert r["S1_witness"] == [[["1"], ["0"], ["0"]]]


def test_results_hold_exact_entries():
    b = bow((2, 2, 2), 11)
    new = hw_transition(b)
    mats = [getattr(x, k) for x in (b, new) for k in ("C", "D", "A", "a", "b", "B1", "B2", "B3")]
    assert all(type(v) in (int, Fraction) for m in mats for r in m.rows for v in r)


def test_alpha_injectivity_guard():
    # alpha = [D; A; b] fails injectivity when all three vanish on V2
    b = bow((1, 1, 1), 12)
    broken = BowData(
        CIRCLE_CROSS, b.dims, b.t, b.Z, b.Zp, b.C, Matrix.zero(1, 1),
        Matrix.zero(1, 1), b.a, Matrix.zero(1, 1), b.B1, b.B2, b.B3,
    )
    # such a bow is not certified (V2 = ker A cap ker b breaks (S1)), so it is
    # rejected before alpha is formed: alpha is injective on every certified
    # circle-cross bow (see hw_transition)
    with pytest.raises(UncertifiedInput):
        hw_transition(broken)


def test_linkage_invariants_preserved():
    for dims in ((1, 1, 1), (2, 2, 2), (1, 2, 2)):
        diag = BowDiagram([0, *dims, 0], ["x", "o", "x", "x"])
        diag2 = hw_diagram(diag, 1)
        assert linkage_invariants(diag) == linkage_invariants(diag2)
        assert diag2.dims[2] == dims[0] + dims[2] + 1 - dims[1]


def test_single_cross_circular_diagram_invariant_is_level():
    # the balanced one-cross l-circle diagram carries invariant [l],
    # matching the level of the multiplicative quiver variety it realizes
    for N in (1, 2, 3):
        for l in (1, 2, 3, 4):
            d = BowDiagram([N] * (l + 1), ["x"] + ["o"] * l, circular=True)
            assert linkage_invariants(d) == [l]


def test_cobalanced_segment_identities():
    for n in (1, 2, 3):
        for seed in (5, 7):
            data = sample_cobalanced_segment(n, seed=seed)
            r = cobalanced_reduction_check(data)
            assert r["chain_identity"]
            assert r["telescoping"]
            assert r["loops_invertible"]


def test_cobalanced_singular_loop_is_reported():
    data = sample_cobalanced_segment(2, 5)
    data["B3"] = Matrix.zero(2, 2)
    assert cobalanced_reduction_check(data) == {
        "chain_identity": False, "telescoping": False, "loops_invertible": False,
    }


def test_bow_json_round_trip():
    b = bow((2, 2, 2), 11)
    b2 = BowData.from_json(b.to_json())
    assert b2.C == b.C and b2.B3 == b.B3 and b2.dims == b.dims
    assert check_bow(b2)["certified"]


def singular_B3_bow():
    """A certified circle-cross bow whose B3 is singular: on the sampled
    (2, 2, 2) bow at seed 11, a = A B2 e_1 and b = e_1^T, and the cross
    equation solved for B3 = A B2 (1 - e_1 e_1^T) A^-1."""
    b = bow((2, 2, 2), 11)
    e1 = Matrix.column([1, 0])
    a = b.A * b.B2 * e1
    B3 = (b.A * b.B2 - a * e1.T) * b.A.inverse()
    return BowData(CIRCLE_CROSS, b.dims, b.t, b.Z, b.Zp, b.C, b.D, b.A, a, e1.T,
                   b.B1, b.B2, B3)


def test_hw_transition_needs_invertible_B3():
    s = singular_B3_bow()
    assert check_bow(s)["certified"] and not s.B3.is_invertible()
    with pytest.raises(UncertifiedInput, match="B3 is singular"):
        hw_transition(s)


def singular_B1_bow():
    """A certified cross-circle bow with B1 = [[1, 2], [2, 4]] at dims
    (2, 2, 2): A = 1, a = e_1, b = e_2^T, B2 solved from the cross equation,
    D from loop-left (C = 1) and B3 from loop-right."""
    t, Z, Zp = Fraction(2), Fraction(3), Fraction(5, 2)
    I = Matrix.identity(2)
    B1 = Matrix([[1, 2], [2, 4]])
    A, C = I, I
    a, b = Matrix.column([1, 0]), Matrix([[0, 1]])
    B2 = (A * B1 - a * b) * A.inverse()
    D = (B2.inverse() * (t * Z) - I) * C.inverse()
    B3 = (I + C * D).inverse() * Zp
    return BowData(CROSS_CIRCLE, (2, 2, 2), t, Z, Zp, C, D, A, a, b, B1, B2, B3)


def test_hw_inverse_needs_invertible_B1():
    s = singular_B1_bow()
    assert check_bow(s)["certified"] and not s.B1.is_invertible()
    with pytest.raises(UncertifiedInput, match="B1 is singular"):
        hw_inverse(s)


@pytest.mark.parametrize("name", ["t", "Z", "Zp"])
def test_zero_scalars_are_rejected(name):
    scalars = {"t": 2, "Z": 3, "Zp": Fraction(5, 2), name: 0}
    with pytest.raises(ValueError, match=f"^{name} must be nonzero$"):
        sample_bow((1, 1, 1), seed=11, **scalars)
    data = {**bow((1, 1, 1), 11).to_json(), name: "0"}
    with pytest.raises(ValueError, match=f"^{name} must be nonzero$"):
        BowData.from_json(data)


def test_hw_diagram_linear_index_range():
    # index -1 used to swap the last and first edges and rewrite dims[0]
    diag = BowDiagram([0, 1, 1, 1, 0], ["x", "o", "o", "o"])
    for i in (-1, 3):
        with pytest.raises(ValueError, match=r"cross_edge must lie in 0\.\.2"):
            hw_diagram(diag, i)
    assert hw_diagram(diag, 0) == BowDiagram([0, 1, 1, 1, 0], ["o", "x", "o", "o"])


def test_hw_diagram_circular_pairs():
    # every (circle, cross) pair of random circular diagrams, the pair over
    # the wrap (edges E - 1 and 0) included: the linkage invariants are
    # kept, up to the cyclic rotation the wrap pair makes of the cross order
    rng = Random(5)
    wraps = 0
    for _ in range(300):
        E = rng.randint(2, 7)
        edges = [rng.choice("ox") for _ in range(E)]
        diag = BowDiagram([rng.randint(0, 4) for _ in range(E)], edges, circular=True)
        before = linkage_invariants(diag)
        for i in range(E):
            if {edges[i], edges[(i + 1) % E]} != {"o", "x"}:
                continue
            after = hw_diagram(diag, i)
            assert hw_diagram(diag, i - E) == after
            if i < E - 1:
                assert linkage_invariants(after) == before
            else:
                wraps += 1
                rotations = [before[k:] + before[:k] for k in range(len(before))]
                assert linkage_invariants(after) in rotations
    assert wraps > 50
