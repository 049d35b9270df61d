"""Smith forms over Q[t, 1/t] on sparse Laurent rows, checked against
evaluation: at any a != 0 the rank of the rows evaluated at a, found by
elimination with no Smith form, is the number of divisors that do not
vanish at a."""

import copy
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from novikov import twisted
from novikov.cli import parse_scalar
from novikov.linalg import rank
from novikov.numfield import NumberField
from novikov.polyq import Poly
from novikov.twisted import _laurent_smith, evaluate_rows

S = Poly([-1, 1])                  # t - 1
U = Poly([1, 1])                   # t + 1
ALEXANDER = Poly([-1, -3, 2])      # the minimal polynomial of @-1,-3,2


def laurent(p: Poly, low: int = 0) -> dict:
    """t**low * p as a Laurent polynomial."""
    return {e + low: c for e, c in enumerate(p.coeffs) if c}


def evaluated_rank(rows, ncols, a):
    dense = [[vec.get(j, 0) for j in range(ncols)]
             for vec in evaluate_rows(rows, a)]
    return rank(dense, ncols)


def rank_at(divisors, a):
    """The rank at t = a != 0 that the divisors give: those not vanishing
    at a."""
    return sum(1 for d in divisors if d.eval(a))


def rank_at_factor_root(divisors, factor):
    """The rank at any root of ``factor``, which divides each divisor or is
    coprime to it: the divisors it does not divide."""
    return sum(1 for d in divisors if not factor.divides(d))


def assert_divisor_chain(divisors):
    for d in divisors:
        assert d.leading() == 1 and d.constant_term() != 0
    for d1, d2 in zip(divisors, divisors[1:]):
        assert d1.divides(d2)


# The points of evaluation: rationals, the roots 1, -1 and 1/2 of the
# factors below, and an algebraic root of ALEXANDER.
POINTS = [Fraction(2), Fraction(-1, 3), Fraction(5, 2), Fraction(1),
          Fraction(-1), Fraction(1, 2), parse_scalar("@-1,-3,2")]


def _product(factors):
    out = Poly([1])
    for f in factors:
        out = out * f
    return out


coefficients = st.fractions(min_value=-3, max_value=3,
                            max_denominator=4).filter(bool)
# an entry is either a random sum of terms c * t**e, or a monomial such as
# 2 * t**-3 times a product of factors that the entries share, so that
# divisors other than 1 are frequent
random_entry = st.dictionaries(st.integers(-4, 3), coefficients,
                               min_size=1, max_size=3)
factor_entry = st.builds(
    lambda c, e, fs: laurent(Poly([c]) * _product(fs), e),
    coefficients, st.integers(-4, 3),
    st.lists(st.sampled_from([S, U, Poly([-1, 2]), ALEXANDER]),
             max_size=3))


@st.composite
def laurent_rows(draw):
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    entry = st.one_of(random_entry, factor_entry)
    rows = [draw(st.dictionaries(st.integers(0, ncols - 1), entry,
                                 max_size=ncols))
            for _ in range(nrows)]
    return rows, ncols


def test_snf_upper_triangular_example():
    """[[t, 1], [0, t]]: t is a unit of Q[t, 1/t], so both divisors are 1."""
    rows = [{0: {1: 1}, 1: {0: 1}}, {1: {1: 1}}]
    divisors = _laurent_smith(rows)
    assert divisors == [Poly([1]), Poly([1])]
    assert len(divisors) == 2
    assert rank_at(divisors, Fraction(5)) == 2 == evaluated_rank(rows, 2, 5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(laurent_rows())
def test_snf_divisibility_chain_random(instance):
    rows, ncols = instance
    before = copy.deepcopy(rows)
    divisors = _laurent_smith(rows)
    assert rows == before
    assert len(divisors) <= min(len(rows), ncols)
    assert_divisor_chain(divisors)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(laurent_rows())
def test_snf_rank_matches_direct_rank_at_points(instance):
    rows, ncols = instance
    divisors = _laurent_smith(rows)
    for a in POINTS:
        assert rank_at(divisors, a) == evaluated_rank(rows, ncols, a), a


def test_rank_at_field_element():
    field = NumberField([2, -3, 2])
    a = field.generator()
    rows = [{1: laurent(Poly([2, -3, 2]), -3)}]
    divisors = _laurent_smith(rows)
    assert rank_at(divisors, a) == 0 == evaluated_rank(rows, 2, a)
    assert rank_at(divisors, Fraction(1)) == 1 == evaluated_rank(rows, 2, 1)


def test_rank_at_factor_root():
    rows = [{0: laurent(S)}, {1: laurent(S * Poly([2, -3, 2]), -2)}]
    divisors = _laurent_smith(rows)
    assert len(divisors) == 2
    assert rank_at_factor_root(divisors, S) == 0
    assert rank_at_factor_root(divisors, Poly([1, Fraction(-3, 2), 1])) == 1


def test_empty_and_zero_matrices():
    assert len(_laurent_smith([])) == 0
    assert len(_laurent_smith([{}, {}, {}])) == 0


def test_divisibility_fixup_skips_zero_entries(monkeypatch):
    """On a sparse matrix no division ever reads a zero entry, and the
    divisors are those of the scattered diagonal with its powers of t
    dropped."""
    calls = []
    real = twisted._laurent_divmod

    def recording(a, b):
        calls.append(a)
        return real(a, b)

    monkeypatch.setattr(twisted, "_laurent_divmod", recording)
    rows = [{3: laurent(S * U)}, {}, {0: {0: 3}}, {5: laurent(S, 1)},
            {1: laurent(S)}]
    divisors = _laurent_smith(rows)
    assert calls and all(calls)
    assert divisors == [Poly([1]), S, S, S * U]


def test_fixup_turns_a_coprime_diagonal_into_a_chain():
    """diag(t - 1, t**-2 * (t + 1)) has the divisors 1 and t**2 - 1: only
    the fixup, which adds the second row into the first, finds the 1."""
    rows = [{0: laurent(S)}, {1: laurent(U, -2)}]
    divisors = _laurent_smith(rows)
    assert divisors == [Poly([1]), S * U]
    for a in (Fraction(1), Fraction(-1), Fraction(3)):
        assert rank_at(divisors, a) == evaluated_rank(rows, 2, a)
