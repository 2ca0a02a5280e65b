"""The independent Hilbert-function check against closed forms.

    python3 -m pytest perfbench/test_hilbert_check.py
"""

from fractions import Fraction

from hilbert_check import quotient_dims, rank


def poly(nvars, *terms):
    """{exponent tuple: coefficient} from (coefficient, {variable: power})."""
    out = {}
    for c, powers in terms:
        out[tuple(powers.get(i, 0) for i in range(nvars))] = c
    return out


def test_twisted_cubic():
    # 2x2 minors of [[x0, x1, x2], [x1, x2, x3]]: h(j) = 3j + 1
    gens = [
        poly(4, (1, {0: 1, 2: 1}), (-1, {1: 2})),
        poly(4, (1, {0: 1, 3: 1}), (-1, {1: 1, 2: 1})),
        poly(4, (1, {1: 1, 3: 1}), (-1, {2: 2})),
    ]
    assert quotient_dims(gens, 4, range(8)) == [3 * j + 1 for j in range(8)]


def test_complete_intersection_of_two_quadrics():
    # (x0*x1 - x2*x3, x0^2 + x1^2 + x2^2 + x3^2) in P^3: h(j) = 4j for j >= 1
    gens = [
        poly(4, (1, {0: 1, 1: 1}), (-1, {2: 1, 3: 1})),
        poly(4, (1, {0: 2}), (1, {1: 2}), (1, {2: 2}), (1, {3: 2})),
    ]
    assert quotient_dims(gens, 4, range(8)) == [1] + [4 * j for j in range(1, 8)]


def test_line_with_rational_coefficients():
    # (x2 - x3/2, x3) cuts out the line x2 = x3 = 0: h(j) = j + 1
    gens = [poly(4, (1, {2: 1}), (Fraction(-1, 2), {3: 1})), poly(4, (1, {3: 1}))]
    assert quotient_dims(gens, 4, range(-2, 6)) == [0, 0] + [j + 1 for j in range(6)]


def test_rank_is_exact_over_the_rationals():
    # dependent over Q only after clearing the common factor 3
    rows = [{0: 3, 1: 6}, {0: 1, 1: 2}, {1: 5, 2: 7}]
    assert rank(rows) == 2
