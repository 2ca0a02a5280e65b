import random

import pytest

from extremalcurves.cohomology import verify_extremal
from extremalcurves.construct import extremal_curve_ideal
from extremalcurves.groebner import buchberger, initial_monomials, linear_images, minimal_basis
from extremalcurves.monomials import MonomialIdeal
from extremalcurves.oracle import minimal_generators, oracle_ideal_dims
from extremalcurves.packing import ExponentLimitError, layout
from extremalcurves.ring import PolyRing, Polynomial, PrimeField
from reference import contains, ideal_dim, normal_form

R3 = PolyRing(3)
R4 = PolyRing(4)


class TestMinimalBasis:
    def test_a_pair_of_the_candidate_degree_shows_it_redundant(self):
        # c = x1*a - x0*b has the lead x1^2*x2, which neither lead divides:
        # only the S-pair of a and b, of degree 3, puts it in the basis
        x0, x1, x2 = R3.gens()
        a, b = x0 * x0 + x1 * x2, x0 * x1 + x2 * x2
        c = x1 * a - x0 * b
        kept, gb = minimal_basis([c, a, b], R3)
        assert kept == [a, b] == minimal_generators([c, a, b])
        assert gb == buchberger([a, b])

    def test_kept_mates_count(self):
        # within one degree a candidate is measured against the kept mates
        x0, x1, x2 = R3.gens()
        gens = [x0 * x1, x0 * x1 + x2 * x2, x2 * x2, x0 * x0]
        kept, gb = minimal_basis(gens, R3)
        assert kept == [x0 * x1, x0 * x1 + x2 * x2, x0 * x0] == minimal_generators(gens)
        assert gb == buchberger(kept)

    def test_empty_and_zero_generators(self):
        kept, gb = minimal_basis([R3.zero], R3)
        assert kept == [] and len(gb) == 0


class TestBuchberger:
    def test_one_step_spair(self):
        x0, x1, x2 = R3.gens()
        gb = buchberger([x0 * x0 - x1 * x2, x0 * x1])
        got = {str(p) for p in gb}
        assert got == {"x0^2 - x1*x2", "x0*x1", "x1^2*x2"}
        # membership cross-check with the linear-algebra oracle
        dims = oracle_ideal_dims([x0 * x0 - x1 * x2, x0 * x1], 6)
        lead = gb.initial_ideal()
        for j in range(7):
            assert dims[j] == ideal_dim(lead, j)

    def test_monomial_ideal_fixed_point(self):
        x0, x1, x2 = R3.gens()
        gb = buchberger([x0 * x1, x1 * x2 * x2])
        assert {str(p) for p in gb} == {"x0*x1", "x1*x2^2"}

    def test_reduced_and_monic(self):
        x0, x1, x2 = R3.gens()
        gb = buchberger([2 * (x0 * x0) - 4 * (x1 * x2), 3 * (x0 * x1)])
        for p in gb:
            assert p.lead_coeff == 1
        assert {str(p) for p in gb} == {"x0^2 - 2*x1*x2", "x0*x1", "x1^2*x2"}

    def test_prime_field(self):
        ring = PolyRing(3, PrimeField(32003))
        x0, x1, x2 = ring.gens()
        gb = buchberger([x0 * x0 - x1 * x2, x0 * x1])
        assert len(gb) == 3
        assert gb.initial_ideal() == MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 1)])

    def test_random_dims_agree_with_oracle(self):
        rng = random.Random(23)
        for _ in range(12):
            ring = PolyRing(rng.randrange(3, 5))
            polys = []
            for _ in range(rng.randrange(2, 4)):
                deg = rng.randrange(1, 4)
                terms = [
                    (m, rng.randrange(-2, 3))
                    for m in ring.monomials_of_degree(deg)
                    if rng.random() < 0.4
                ]
                p = Polynomial(ring, terms)
                if p:
                    polys.append(p)
            if not polys:
                continue
            gb = buchberger(polys, ring)
            lead = gb.initial_ideal()
            dims = oracle_ideal_dims(polys, 8, ring)
            for j in range(9):
                assert dims[j] == ideal_dim(lead, j), (polys, j)


class TestNormalForm:
    def test_single_reduction(self):
        x0, x1, x2 = R3.gens()
        gb = buchberger([x0 * x0 - x1 * x2])
        assert normal_form(gb, x0 * x0) == x1 * x2

    def test_member_reduces_to_zero(self):
        x0, x1, x2 = R3.gens()
        f = x0 * x0 - x1 * x2
        gb = buchberger([f, x0 * x1])
        member = (x1 + x2) * f + x2 * (x0 * x1)
        assert not normal_form(gb, member)

    def test_no_reducer(self):
        x0, x1, x2 = R3.gens()
        gb = buchberger([x0, x1])
        assert normal_form(gb, x2 * x2) == x2 * x2

    def test_difference_in_ideal(self):
        x0, x1, x2 = R3.gens()
        gb = buchberger([x0 * x0 - x1 * x2, x0 * x1])
        f = (x0 + x1 + x2) ** 3
        r = normal_form(gb, f)
        assert contains(gb, f - r)
        # remainder is fully reduced: no term divisible by a lead monomial
        lead = gb.initial_ideal()
        for m, _ in r.terms:
            assert not lead.contains(m)


class TestRingInference:
    # with no ring given, it is read off the first polynomial generator;
    # with none, the run refuses as `kernel_of_map` does
    def test_no_generators(self):
        with pytest.raises(ValueError, match="cannot infer the ring"):
            buchberger([])
        assert len(buchberger([], R3)) == 0

    def test_no_generators_capped(self):
        with pytest.raises(ValueError, match="cannot infer the ring"):
            initial_monomials([], 3)
        assert initial_monomials([], 3, R3) == MonomialIdeal(3, [])

    def test_engine_elements_need_the_ring(self):
        x0, x1, x2 = R3.gens()
        gens = [x0 * x1 - x2 * x2, x1 * x1]
        identity = [[int(i == j) for j in range(3)] for i in range(3)]
        images = linear_images(gens, identity, R3)
        with pytest.raises(ValueError, match="cannot infer the ring"):
            buchberger(images)
        with pytest.raises(ValueError, match="cannot infer the ring"):
            initial_monomials(images, None)
        assert buchberger(images, R3) == buchberger(gens)
        assert initial_monomials(images, None, R3) == buchberger(gens).initial_ideal()


class TestTruncatedLeads:
    def test_cap_cuts_high_degrees(self):
        x0, x1, x2 = R3.gens()
        gens = [x0 * x0 - x1 * x2, x0 * x1]
        full = buchberger(gens).initial_ideal()
        assert initial_monomials(gens, cap=6) == full
        capped = initial_monomials(gens, cap=2)
        assert capped == MonomialIdeal(3, [(2, 0, 0), (1, 1, 0)])


class TestExponentLimit:
    def test_pack_rejects_large_exponent(self):
        with pytest.raises(ExponentLimitError):
            layout(3).pack((128, 0, 0))

    def test_pair_degree_beyond_limit_raises(self):
        # the S-pair of the first two generators has degree 200; 8-bit
        # slots would carry into the next variable and return a basis
        # holding both x1^200 and x1^110
        x0, x1, _ = R3.gens()
        with pytest.raises(ExponentLimitError):
            buchberger([x0 ** 100 * x1 + x1 ** 101, x0 * x1 ** 100, x1 ** 110], R3)

    def test_input_degree_beyond_limit_raises(self):
        x0, x1, _ = R3.gens()
        with pytest.raises(ExponentLimitError):
            buchberger([x0 ** 64 * x1 ** 64], R3)

    def test_module_keys_beyond_limit_raise(self):
        # the basis is fine, but the Koszul syzygy and the graph S-pair of
        # x0^100 and x1^100 live in degree 200
        from extremalcurves.modules import (
            PresentedModule,
            free_resolution_from_gb,
            module_kernel,
            packed_vector,
        )

        x0, x1, _ = R3.gens()
        a, b = x0 ** 100, x1 ** 100
        gb = buchberger([a, b], R3)
        with pytest.raises(ExponentLimitError):
            free_resolution_from_gb(gb)
        with pytest.raises(ExponentLimitError):
            module_kernel([[a], [b]], [0], R3)
        with pytest.raises(ExponentLimitError):
            PresentedModule(R3, [0, 0], [packed_vector(R3, [a, b]), packed_vector(R3, [b, a])])

    def test_pair_limit_names_the_monomial_degree(self):
        # h2's coker module of ex45 (3, 14, 0) pops a pair of degree 63
        # over twists down to -81: its terms reach monomial degree 144,
        # the degree that the limit tests
        with pytest.raises(ExponentLimitError, match=r"monomial degree 144 .* exceeds the packed limit 127"):
            verify_extremal(extremal_curve_ideal(3, 14, 0))
