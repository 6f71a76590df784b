from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paratower.boundary import ClopenSet
from paratower.crossed import (
    CrossedElement,
    StepFunction,
    build_isometry,
    cp_add,
    cp_adjoint,
    cp_multiply,
    cp_scale,
    expectation,
    isometry_checks,
)
from paratower.words import inverse, multiply, reduce_word

letters = st.sampled_from("aAbB")
words = st.lists(letters, max_size=4).map(reduce_word)
fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def step_from_parts(parts):
    # depth-2 refinement cells indexed by a bitmask-free value list
    cells = ClopenSet.full_set().refine(2)
    return StepFunction(
        [(ClopenSet.cylinder(c), v) for c, v in zip(cells, parts)]
    )


steps = st.lists(fracs, min_size=12, max_size=12).map(step_from_parts)
elements = st.lists(st.tuples(words, steps), max_size=3).map(
    lambda ts: CrossedElement(
        {g: f for g, f in reversed(ts)}  # last write wins, arbitrary
    )
)


def test_step_function_canonical_form():
    f = StepFunction(
        [(ClopenSet.cylinder("ab"), Fraction(2)),
         (ClopenSet.cylinder("aa"), Fraction(2)),
         (ClopenSet.cylinder("b"), Fraction(0))]
    )
    assert len(f.pieces) == 1
    assert f.pieces[0][0].equals(ClopenSet(["aa", "ab"]))
    with pytest.raises(ValueError):
        StepFunction(
            [(ClopenSet.cylinder("a"), Fraction(1)),
             (ClopenSet.cylinder("ab"), Fraction(2))]
        )


@given(steps, steps)
@settings(max_examples=40, deadline=None)
def test_step_add_mul_pointwise(f, g):
    for cell in ClopenSet.full_set().refine(2):

        def value(h):
            for s, v in h.pieces:
                if s.contains_point_prefix(cell):
                    return v
            return Fraction(0)

        assert value(f.add(g)) == value(f) + value(g)
        assert value(f.mul(g)) == value(f) * value(g)


@given(steps, words)
@settings(max_examples=40, deadline=None)
def test_step_act_round_trip(f, g):
    assert f.act(g).act(inverse(g)).equals(f)


def test_step_json_round_trip():
    f = StepFunction(
        [(ClopenSet.cylinder("a"), Fraction(1, 3)),
         (ClopenSet.cylinder("b"), Fraction(-2))]
    )
    assert StepFunction.from_json(f.to_json()).equals(f)


# -- ring axioms of the crossed product

@given(elements, elements, elements)
@settings(max_examples=25, deadline=None)
def test_multiplication_associative(x, y, z):
    left = cp_multiply(cp_multiply(x, y), z)
    right = cp_multiply(x, cp_multiply(y, z))
    assert left.equals(right)


@given(elements, elements, elements)
@settings(max_examples=25, deadline=None)
def test_multiplication_distributes(x, y, z):
    lhs = cp_multiply(x, cp_add(y, z))
    rhs = cp_add(cp_multiply(x, y), cp_multiply(x, z))
    assert lhs.equals(rhs)


@given(elements)
@settings(max_examples=25, deadline=None)
def test_one_is_neutral(x):
    assert cp_multiply(CrossedElement.one(), x).equals(x)
    assert cp_multiply(x, CrossedElement.one()).equals(x)


@given(elements, elements)
@settings(max_examples=25, deadline=None)
def test_adjoint_antimultiplicative(x, y):
    lhs = cp_adjoint(cp_multiply(x, y))
    rhs = cp_multiply(cp_adjoint(y), cp_adjoint(x))
    assert lhs.equals(rhs)


@given(elements)
@settings(max_examples=25, deadline=None)
def test_adjoint_involution(x):
    assert cp_adjoint(cp_adjoint(x)).equals(x)


@given(words, steps)
@settings(max_examples=40, deadline=None)
def test_covariance_relation(g, f):
    # u_g f u_g* equals the translated function
    u = CrossedElement.unitary(g)
    conj = cp_multiply(cp_multiply(u, CrossedElement.from_function(f)),
                       cp_adjoint(u))
    assert conj.equals(CrossedElement.from_function(f.act(g)))


def test_unitaries_compose():
    u = CrossedElement.unitary("ab")
    w = CrossedElement.unitary("Ba")
    assert cp_multiply(u, w).equals(CrossedElement.unitary(multiply("ab", "Ba")))
    assert cp_multiply(u, cp_adjoint(u)).equals(CrossedElement.one())


@given(elements, elements)
@settings(max_examples=25, deadline=None)
def test_expectation_is_linear_and_positive_on_squares(x, y):
    assert expectation(cp_add(x, y)).equals(
        expectation(x).add(expectation(y))
    )
    sq = expectation(cp_multiply(cp_adjoint(x), x))
    assert all(v >= 0 for _, v in sq.pieces)


@given(steps)
@settings(max_examples=25, deadline=None)
def test_expectation_fixes_functions(f):
    assert expectation(CrossedElement.from_function(f)).equals(f)


def test_scale_matches_repeated_add():
    x = CrossedElement({"a": StepFunction.one()})
    assert cp_scale(Fraction(2), x).equals(cp_add(x, x))


def test_crossed_json_round_trip():
    x = CrossedElement({
        "": StepFunction.indicator(ClopenSet.cylinder("a"), Fraction(1, 2)),
        "ab": StepFunction.one(),
    })
    assert CrossedElement.from_json(x.to_json()).equals(x)


def test_json_decoding_refuses_what_is_not_an_f2_step_or_word():
    product_set = {"space": "product", "k": {"name": "Z/2"}, "slices": {}}
    with pytest.raises(ValueError, match="expected a boundary set"):
        StepFunction.from_json([{"set": product_set, "value": "1"}])
    one = StepFunction.one().to_json()
    with pytest.raises(ValueError, match="'aA'"):
        CrossedElement.from_json({"terms": [{"g": "aA", "step": one}]})
    with pytest.raises(ValueError, match="two terms"):
        CrossedElement.from_json({"terms": [{"g": "a", "step": one}] * 2})


# -- the isometry

CYL_A = ClopenSet.cylinder("a")


def test_build_isometry_certificate():
    cert = build_isometry(CYL_A)
    assert cert.passed
    assert sorted(cert.data) == ["U", "checks", "pass", "v"]
    assert cert.data["checks"] == {"isometry": True, "range_inside_u": True, "not_unitary": True}
    assert cert.data["U"] == CYL_A.to_json()


def test_isometry_algebra_recheck():
    # recompute s*s and the range projection from the serialized element
    cert = build_isometry(CYL_A)
    s = CrossedElement.from_json(cert.data["v"])
    assert cp_multiply(cp_adjoint(s), s).equals(CrossedElement.one())
    rng = cp_multiply(s, cp_adjoint(s))
    # the range projection is the indicator of a set inside U
    assert list(rng.terms) == [""]
    (support, value), = expectation(rng).pieces
    assert value == 1 and support.is_subset(CYL_A) and not support.is_full()


@pytest.mark.parametrize(
    "s, failing",
    [
        # a unitary: s*s = 1, but its range is everything
        (CrossedElement.unitary("b"), ["not_unitary", "range_inside_u"]),
        # a projection onto U: its range is inside U, but s*s != 1
        (CrossedElement.from_function(StepFunction.indicator(CYL_A)), ["isometry"]),
        # one term of a partial isometry moved off U
        (CrossedElement({"A": StepFunction.indicator(ClopenSet.cylinder("A"))}),
         ["isometry", "range_inside_u"]),
    ],
    ids=["unitary", "projection", "off-U"],
)
def test_isometry_checks_decide_each_identity(s, failing):
    checks = isometry_checks(CYL_A, s)
    assert sorted(name for name, ok in checks.items() if not ok) == failing


def test_build_isometry_rejects_bad_input():
    for u_set in (ClopenSet.empty(), ClopenSet.full_set(), ClopenSet(["a", "A", "b", "B"])):
        with pytest.raises(ValueError, match="nonempty proper"):
            build_isometry(u_set)
