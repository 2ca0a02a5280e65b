from extremalcurves.ideals import (
    Ideal,
    divide_exact,
    intersect,
    is_saturated,
    kernel_of_map,
    quotient,
    random_invertible_matrix,
    saturate,
)
from extremalcurves.oracle import oracle_ideal_dims
from extremalcurves.ring import PolyRing, Polynomial, PrimeField
from reference import change_coordinates

import pytest

R3 = PolyRing(3)
R4 = PolyRing(4)


class TestIntersect:
    def test_two_coordinates(self):
        x0, x1, _ = R3.gens()
        got = intersect(Ideal(R3, [x0]), Ideal(R3, [x1]))
        assert got == Ideal(R3, [x0 * x1])

    def test_idempotent(self):
        x0, x1, x2 = R3.gens()
        I = Ideal(R3, [x0 * x0 - x1 * x2, x1 * x1])
        assert intersect(I, I) == I

    def test_plane_and_line(self):
        x0, x1, x2 = R3.gens()
        got = intersect(Ideal(R3, [x0, x1]), Ideal(R3, [x2]))
        assert got == Ideal(R3, [x0 * x2, x1 * x2])

    def test_double_inclusion_on_graded_pieces(self):
        x0, x1, x2 = R3.gens()
        I = Ideal(R3, [x0 * x0 - x1 * x2, x1 * x1])
        J = Ideal(R3, [x0 * x1, x2 * x2])
        K = intersect(I, J)
        # membership both ways, degree by degree, via the Gröbner engine
        for g in K.gens:
            assert I.contains(g) and J.contains(g)
        for j in range(8):
            # dim of the intersection piece: inclusion-exclusion check
            assert K.dim_piece(j) <= min(I.dim_piece(j), J.dim_piece(j))


class TestQuotientAndSaturation:
    def test_simple_colon(self):
        x0, x1, _ = R3.gens()
        got = quotient(Ideal(R3, [x0 * x1]), Ideal(R3, [x0]))
        assert got == Ideal(R3, [x1])

    def test_colon_by_ring(self):
        x0, x1, x2 = R3.gens()
        I = Ideal(R3, [x0 * x0, x1 * x2])
        assert quotient(I, Ideal(R3, [R3.one])) == I

    def test_colon_two_generators(self):
        x0, x1, _ = R3.gens()
        got = quotient(Ideal(R3, [x0 * x0, x0 * x1]), Ideal(R3, [x0]))
        assert got == Ideal(R3, [x0, x1])

    def test_divide_exact(self):
        x0, x1, _ = R3.gens()
        f = (x0 + x1) * (x0 * x0 - x1 * x1)
        assert divide_exact(f, x0 + x1) == x0 * x0 - x1 * x1
        with pytest.raises(ValueError):
            divide_exact(x0 * x0, x1)

    def test_saturate_strips_irrelevant_power(self):
        gens = [R3.gen(0) * g for g in R3.gens()]
        got = saturate(Ideal(R3, gens))
        assert got == Ideal(R3, [R3.gen(0)])

    def test_saturated_fixed_point(self):
        x0, x1, x2 = R3.gens()
        I = Ideal(R3, [x0 * x1 - x2 * x2])
        assert saturate(I) == I
        assert is_saturated(I)

    def test_saturate_idempotent(self):
        gens = [R3.gen(1) * g for g in R3.gens()]
        once = saturate(Ideal(R3, gens))
        assert saturate(once) == once


class TestChangeCoordinates:
    def test_identity(self):
        x0, x1, x2 = R3.gens()
        I = Ideal(R3, [x0 * x0 - x1 * x2])
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert change_coordinates(I, eye) == I

    def test_swap(self):
        x0, x1, _ = R3.gens()
        swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        assert change_coordinates(Ideal(R3, [x0]), swap) == Ideal(R3, [x1])

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            change_coordinates(Ideal(R3, [R3.gen(0)]), [[1, 0, 0], [1, 0, 0], [0, 0, 1]])

    def test_singular_mod_p_rejected(self):
        # 7 * identity is invertible over QQ but zero over Z/7
        ring = PolyRing(3, PrimeField(7))
        x0, x1, x2 = ring.gens()
        seven = [[7 if i == j else 0 for j in range(3)] for i in range(3)]
        with pytest.raises(ValueError):
            change_coordinates(Ideal(ring, [x0 * x1, x2 * x2]), seven)

    def test_random_draws_are_invertible_over_the_field(self):
        # a draw of rank 4 over QQ can be singular mod 7; every draw for a
        # Z/7 ring must have rows that span the linear forms over Z/7
        import random

        ring = PolyRing(4, PrimeField(7))
        rng = random.Random(5)
        for _ in range(200):
            m = random_invertible_matrix(ring, rng, 20)
            rows = [Polynomial(ring, [(ring.var_mono(j), c) for j, c in enumerate(row)]) for row in m]
            assert Ideal(ring, rows).dim_piece(1) == 4

    def test_hilbert_function_invariant(self):
        import random

        rng = random.Random(9)
        x0, x1, x2, x3 = R4.gens()
        I = Ideal(R4, [x2 * x2, x2 * x3, x3 * x3, x0 * x2 + x1 * x3])
        for _ in range(3):
            while True:
                m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
                try:
                    J = change_coordinates(I, m)
                    break
                except ValueError:
                    continue
            assert oracle_ideal_dims(list(J.gens), 6, R4) == oracle_ideal_dims(
                list(I.gens), 6, R4
            )


class TestKernelOfMap:
    def test_koszul(self):
        x0, x1, _ = R3.gens()
        ker = kernel_of_map([x0, x1])
        assert len(ker) == 1
        a, b = ker[0]
        assert a * x0 + b * x1 == R3.zero

    def test_zero_map(self):
        z = R3.zero
        ker = kernel_of_map([z, z], ring=R3)
        vecs = {tuple(str(p) for p in v) for v in ker}
        assert ("1", "0") in vecs and ("0", "1") in vecs

    def test_into_quotient(self):
        # kernel of R^2 -> R/(x2): e1 -> x0, e2 -> x1
        x0, x1, x2 = R3.gens()
        ker = kernel_of_map([x0, x1], relations=[x2])
        I = Ideal(R3, [sum((c * v for c, v in zip(vec, [x0, x1])), R3.zero) for vec in ker])
        # the image ideal is (x0, x1) cap preimage: x2-multiples plus Koszul
        assert I.contains(x1 * x0 - x0 * x1)
        assert I.contains(x0 * x2)
        # and membership is exactly {h : h in (x2) + syzygy image}
        got = quotient(Ideal(R3, [x2]), Ideal(R3, [R3.one]))
        assert got == Ideal(R3, [x2])


def test_minimal_checks_each_candidate_once(monkeypatch):
    # `Ideal.__init__` tests homogeneity; the engine run of `minimal_basis`
    # must not test the same candidates again
    x0, x1, x2 = R3.gens()
    gens = [x0 * x1, x0 * x1 * x2, x1**2 - x0 * x2, x2**3, R3.zero, x0 * x1]
    calls = []
    original = Polynomial.is_homogeneous

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Polynomial, "is_homogeneous", counted)
    I = Ideal.minimal(R3, gens)
    assert len(calls) == 5  # the nonzero candidates, once each
    assert I.gens == (x0 * x1, x1**2 - x0 * x2, x2**3)
    with pytest.raises(ValueError, match="homogeneous"):
        Ideal.minimal(R3, [x0 * x1, x0 + x1**2])
