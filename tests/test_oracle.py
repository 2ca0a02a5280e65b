import random
from fractions import Fraction

import pytest

from extremalcurves.oracle import (
    fraction_rank,
    minimal_generators,
    oracle_ideal_dims,
    oracle_quotient_dims,
)
from extremalcurves.ring import PolyRing, Polynomial
from reference import dense_rank, graded_piece_basis

R4 = PolyRing(4)


def P(ring, *terms):
    return Polynomial(ring, terms)


def test_rank_two_quadrics_degree_three():
    # gens (x2*x3, x3^2) in 4 variables: seven distinct degree-3 multiples
    gens = [P(R4, ((0, 0, 1, 1), 1)), P(R4, ((0, 0, 0, 2), 1))]
    m = graded_piece_basis(gens, 3)
    assert m.rank == 7


def test_rank_principal_linear():
    gens = [R4.gen(0)]
    assert graded_piece_basis(gens, 1).rank == 1


def test_rank_catalog_dims():
    # explicit degree-4 curve in P^3 of genus 0: rank 18 at degree 4,
    # complement 35 - 18 = 17 = 4*4 + 1
    x0, x1, x2, x3 = R4.gens()
    gens = [
        x2**4,
        x2**3 * x3,
        x2 * x3,
        x3**2,
        x0 * x2**3 + x1**3 * x3,
    ]
    m = graded_piece_basis(gens, 4)
    assert m.rank == 18
    assert R4.dim_degree(4) - m.rank == 17


def test_empty_below_generators():
    gens = [P(R4, ((0, 0, 1, 1), 1))]
    assert graded_piece_basis(gens, 1).rank == 0
    assert graded_piece_basis(gens, 1).shape[0] == 0


def test_incremental_dims_match_direct():
    x0, x1, x2, x3 = R4.gens()
    gens = [x0 * x1 - x2 * x3, x1**2 + x0 * x2, x2**3]
    dims = oracle_ideal_dims(gens, 7)
    for j in range(8):
        assert dims[j] == graded_piece_basis(gens, j).rank


def test_quotient_dims_line():
    gens = [R4.gen(2), R4.gen(3)]
    assert oracle_quotient_dims(gens, 5) == [1, 2, 3, 4, 5, 6]


def test_minimal_generators_drops_multiples():
    x0, x1, x2, _ = R4.gens()
    gens = [x0, x0 * x1, x1**2, x0 * x2 + x1**2]
    kept = minimal_generators(gens)
    assert kept[0] == x0
    assert x0 * x1 not in kept
    # x0*x2 + x1^2 reduces to x1^2 mod (x0): only one of the two quadrics stays
    assert len(kept) == 2


def test_fraction_rank():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
    assert fraction_rank(rows) == 2
    assert fraction_rank([]) == 0 and fraction_rank([{}, {}]) == 0


def test_fraction_rank_mod_p():
    # det [[1, 3], [2, -1]] = -7: full rank over QQ, rank one over Z/7
    assert fraction_rank([{0: 1, 1: 3}, {0: 2, 1: -1}]) == 2
    assert fraction_rank([{0: 1, 1: 3}, {0: 2, 1: -1}], 7) == 1
    assert fraction_rank([{0: 7}, {1: 14}], 7) == 0  # multiples of p drop out
    assert fraction_rank([{0: 1, 1: 3}, {0: 2, 1: -1}], 5) == 2


def test_fraction_rank_reads_sparse_rows_as_given():
    # columns are any int keys, in any order; Fraction values are cleared
    # row by row, and explicit zeros are left out
    rng = random.Random(24)
    for _ in range(200):
        entries = (0, 0, 1, -2, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        matrix = [[rng.choice(entries) for _ in range(6)] for _ in range(rng.randint(0, 6))]
        keys = rng.sample(range(10**6), 6)
        rows = []
        for row in matrix:
            items = [(keys[c], v) for c, v in enumerate(row) if v or rng.random() < 0.3]
            rng.shuffle(items)
            rows.append(dict(items))
        assert fraction_rank(rows) == _reference_rank(matrix)


def _reference_rank(rows, modulus=0):
    """Plain Gaussian elimination over the rationals, or over Z/p."""
    if modulus:
        mat = [[v % modulus for v in row] for row in rows]
    else:
        mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, modulus) if modulus else 1 / mat[rank][col]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] * inv
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
            if modulus:
                mat[r] = [v % modulus for v in mat[r]]
        rank += 1
    return rank


def _random_entry(rng):
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _random_matrix(rng, entry=_random_entry):
    """Rectangular, often rank-deficient: a product of thin random factors
    with entries entry(rng) (by default int and Fraction), then zero rows
    and columns put in."""
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    inner = rng.randint(0, 4)
    left = [[entry(rng) for _ in range(inner)] for _ in range(nrows)]
    right = [[entry(rng) for _ in range(ncols)] for _ in range(inner)]
    mat = [[sum((a * right[k][c] for k, a in enumerate(row)), 0) for c in range(ncols)] for row in left]
    if mat and rng.random() < 0.3:
        mat[rng.randrange(nrows)] = [0] * ncols
    if ncols and rng.random() < 0.3:
        col = rng.randrange(ncols)
        for row in mat:
            row[col] = 0
    if rng.random() < 0.2:  # an int row among Fraction ones
        mat.append([rng.randint(-3, 3) for _ in range(ncols)])
    return mat


def _random_sparse_matrix(rng):
    """0/+-1 entries, a few per row, up to 40 x 60: the shape of the Rao
    module's Koszul matrices.  Repeated, negated and summed rows (summed
    only over disjoint supports, so the entries stay 0/+-1) make it
    rank-deficient."""
    nrows, ncols = rng.randint(1, 27), rng.randint(1, 60)
    density = rng.uniform(0.02, 0.15)
    mat = [[rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, nrows // 2)):
        a, b = rng.choice(mat), rng.choice(mat)
        if rng.random() < 0.5:
            mat.append([-v for v in a])
        elif not any(x and y for x, y in zip(a, b)):
            mat.append([x + y for x, y in zip(a, b)])
    rng.shuffle(mat)
    return mat


@pytest.mark.parametrize("modulus", [0, 7, 32003])
def test_fraction_rank_equals_rational_elimination(modulus):
    rng = random.Random(20261018 + modulus)
    p = modulus or 7

    def int_entry(rng):  # some multiples of p, so the rank mod p can drop
        return rng.choice([rng.randint(-4, 4), p * rng.randint(-3, 3), p * rng.randint(-2, 2) + rng.randint(-2, 2)])

    mats = [[], [[]], [[], []], [[0, 0]], [[7, 1], [14, 2]], [[0], [-32003]]]
    if not modulus:
        mats += [[[Fraction(1, 2), 1], [1, 2]], [[0], [Fraction(-2, 3)]]]
        mats += [_random_matrix(rng) for _ in range(500)]
    mats += [_random_matrix(rng, int_entry) for _ in range(300)]
    mats += [_random_sparse_matrix(rng) for _ in range(40)]
    ranks = [dense_rank(m, modulus) for m in mats]
    assert ranks == [_reference_rank(m, modulus) for m in mats]
    assert len(set(ranks)) >= 10
    if modulus:  # some ranks drop mod p
        assert any(r < _reference_rank(m) for r, m in zip(ranks, mats))


def test_degree_past_the_packed_limit_raises():
    # past degree 127 the 8-bit keys would carry into the next variable
    from extremalcurves.oracle import GradedSpan
    from extremalcurves.packing import MAXEXP, ExponentLimitError

    R3 = PolyRing(3)
    gens = [R3.gen(0) * R3.gen(1)]
    with pytest.raises(ExponentLimitError):
        oracle_quotient_dims(gens, MAXEXP + 1)
    with pytest.raises(ExponentLimitError):
        graded_piece_basis(gens, MAXEXP + 1)
    span = GradedSpan(R3, gens)
    span.degree = MAXEXP
    with pytest.raises(ExponentLimitError):
        span.advance()


def test_oracle_hf_past_the_packed_limit_exit_2(tmp_path, capsys):
    from extremalcurves.cli import main

    path = tmp_path / "xy.ideal"
    path.write_text("ring n=2 field=q\nx0*x1\n")
    assert main(["oracle-hf", str(path), "--max-deg", "260"]) == 2
    assert "packed limit" in capsys.readouterr().err


def test_oracle_stays_apart_from_the_groebner_engine():
    import ast
    import extremalcurves.oracle as oracle

    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    imported = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    assert not imported & {"groebner", "modules", "ideals", "gin", "cohomology"}
