import random

import pytest

import extremalcurves.cohomology as cohomology
import extremalcurves.groebner as groebner
import extremalcurves.ideals as ideals
import extremalcurves.modules as modules
from extremalcurves.cohomology import (
    CurveAnalysis,
    DegenerateCurveError,
    DualCohomology,
    FiniteLengthModule,
    InternalCheckError,
    NotACurveError,
    constructed_curve_probe,
    deficiency_module,
    detect_hilbert_polynomial,
    general_section_values,
    h2_table,
    hilbert_table,
    hyperplane_section,
    planar_subcurve_check,
    verify_extremal,
)
from extremalcurves.construct import (
    construct_curve,
    cubic_alternate_curve_ideal,
    extremal_curve_ideal,
    non_extremal_witness,
    random_construction_input,
)
from extremalcurves.formulas import max_genus
from extremalcurves.ideals import Ideal, intersect, random_unipotent_matrix
from extremalcurves.modules import PresentedModule
from extremalcurves.monomials import MonomialIdeal
from extremalcurves.ring import PolyRing, Polynomial, PrimeField
from reference import (
    change_coordinates,
    denominator_lcms,
    dense_rao_structure,
    drawn_section_values,
    field_cols,
    field_resolution_data,
    multiplication_commutes,
    planar_subcurve_by_forms,
)

R4 = PolyRing(4)


def _table(I, window):
    """The Hilbert table with the curve data detected, as a verdict does."""
    return hilbert_table(I, window, *detect_hilbert_polynomial(I.initial_ideal()))


class TestHilbertTable:
    def test_space_quartic(self):
        ht = _table(extremal_curve_ideal(3, 4, 0), (0, 5))
        assert ht.dims == (1, 4, 8, 13, 17, 21)
        assert ht.degree == 4
        assert ht.genus == 0

    def test_line(self):
        gens = [R4.gen(2), R4.gen(3)]
        ht = _table(Ideal(R4, gens), (0, 4))
        assert ht.dims == (1, 2, 3, 4, 5)
        assert ht.degree == 1
        assert ht.genus == 0

    def test_plane_curve(self):
        # (x2^(d-1), x3) in P^3: plane curve of degree d-1, genus binom(d-2,2)
        d = 5
        x2, x3 = R4.gen(2), R4.gen(3)
        ht = _table(Ideal(R4, [x2 ** (d - 1), x3]), (0, 5))
        assert ht.degree == d - 1
        assert ht.genus == 3  # binom(3, 2)

    def test_points_rejected(self):
        gens = [R4.gen(1), R4.gen(2), R4.gen(3)]
        with pytest.raises(NotACurveError):
            _table(Ideal(R4, gens), (0, 5))


class TestDeficiencyModule:
    def test_space_quartic(self):
        m = CurveAnalysis(extremal_curve_ideal(3, 4, 0)).rao
        assert {j: v for j, v in m.dims.items()} == {0: 1, 1: 1, 2: 1}
        assert m.generator_count == 1
        assert m.generator_degrees == [0]
        assert m.annihilator_degrees == [1, 1, 1, 3]

    def test_acm_plane_curve(self):
        x2, x3 = R4.gen(2), R4.gen(3)
        dual = DualCohomology(Ideal(R4, [x2 ** 3, x3]))
        m = deficiency_module(dual, dual.rao_dims(-5, 8))
        assert m.dims == {}
        assert m.generator_count == 0

    def test_quintic_in_p4(self):
        m = CurveAnalysis(extremal_curve_ideal(4, 5, 1)).rao
        assert {j: v for j, v in m.dims.items()} == {-1: 1, 0: 2, 1: 1, 2: 1, 3: 1}
        assert m.generator_count == 1

    def test_multiplication_commutes(self):
        m = CurveAnalysis(extremal_curve_ideal(3, 4, 0)).rao
        assert multiplication_commutes(m)

    def test_skew_lines_need_one_generator_less_than_lines(self):
        # s skew lines in general position have h1(I(0)) = s - 1, all of it
        # generators: two lines give K, annihilated by the four variables,
        # and more give no cyclic module, so no annihilator is read; the
        # dense route agrees
        x = R4.gens()
        lines = [[x[0], x[1]], [x[2], x[3]], [x[0] - x[2], x[1] - x[3]], [x[0] + 2 * x[3], x[1] - x[2]]]
        I = Ideal(R4, lines[0])
        for s, line in enumerate(lines[1:], start=2):
            I = intersect(I, Ideal(R4, line))
            m = CurveAnalysis(I).rao
            ann = [1, 1, 1, 1] if s == 2 else None
            assert m.dims[0] == m.generator_count == s - 1 and m.annihilator_degrees == ann
            assert dense_rao_structure(m) == (s - 1, [0] * (s - 1), ann)
            assert multiplication_commutes(m)

    def test_a_basis_missing_a_key_fails_the_shape_check(self, monkeypatch):
        # M_1 of the space quartic is the Rao dual in degree -1 - 4; without
        # its key, x_v : M_0 -> M_1 would have no row and M_1 would count
        # as a second generator
        def dropped(self, degree):
            keys = basis(self, degree)
            return keys[1:] if degree == -5 else keys

        basis = PresentedModule.standard_basis
        monkeypatch.setattr(PresentedModule, "standard_basis", dropped)
        with pytest.raises(InternalCheckError, match="Rao dimensions"):
            CurveAnalysis(extremal_curve_ideal(3, 4, 0)).rao

    def test_support_leaking_out_of_the_window_fails(self, monkeypatch):
        # a table cut down to the support has the module at its edges
        def support_only(self, lo, hi):
            return {j: v for j, v in rao_dims(self, lo, hi).items() if v}

        rao_dims = DualCohomology.rao_dims
        monkeypatch.setattr(DualCohomology, "rao_dims", support_only)
        with pytest.raises(InternalCheckError, match="leaks out of the window"):
            CurveAnalysis(extremal_curve_ideal(4, 5, 1)).rao

    def test_a_map_with_too_few_rows_fails_the_shape_check(self, monkeypatch):
        def short(self, var, degree):
            return mult_matrix(self, var, degree)[:-1]

        mult_matrix = PresentedModule.mult_matrix
        monkeypatch.setattr(PresentedModule, "mult_matrix", short)
        with pytest.raises(InternalCheckError, match="multiplication by x0 on M_-1 disagrees with the Rao dimensions"):
            CurveAnalysis(extremal_curve_ideal(4, 5, 1)).rao

    def test_a_short_target_basis_fails_the_shape_check(self, monkeypatch):
        # M_0 of the space quartic is the Rao dual in degree -4, the target
        # of x_v : M_0 -> M_1; sparse rows carry no length, so only the
        # count of that basis can tell
        def dropped(self, degree):
            keys = basis(self, degree)
            return keys[1:] if degree == -4 else keys

        basis = PresentedModule.standard_basis
        monkeypatch.setattr(PresentedModule, "standard_basis", dropped)
        with pytest.raises(InternalCheckError, match="dual basis of M_0 disagrees with the Rao dimensions"):
            CurveAnalysis(extremal_curve_ideal(3, 4, 0)).rao

    def test_negative_koszul_homology_fails(self, monkeypatch):
        # stacked maps claimed injective leave no kernel for the Koszul
        # two-forms to land in
        def injective(dims, mult, nvars):
            return {t: nvars * dims[t - 1] for t in dims if dims.get(t - 1)}

        monkeypatch.setattr(cohomology, "_stacked_ranks", injective)
        with pytest.raises(InternalCheckError, match="negative Koszul homology"):
            CurveAnalysis(extremal_curve_ideal(4, 5, 1)).rao


class TestH2:
    def test_space_quartic_values(self):
        I = extremal_curve_ideal(3, 4, 0)
        dual = DualCohomology(I)
        values = h2_table(dual, _table(I, (0, 3)), list(dual.rao_dims(0, 3).values()))
        assert values[0] == 1  # binom(d-2, 2) at j = 0
        assert values[1:] == [0, 0, 0]

    def test_riemann_roch_enforced(self):
        # The identity is asserted inside h2_table; a passing call proves it.
        I = extremal_curve_ideal(4, 4, 0)
        dual = DualCohomology(I)
        h2_table(dual, _table(I, (-5, 6)), list(dual.rao_dims(-5, 6).values()))

    def test_riemann_roch_failure_raises(self):
        I = extremal_curve_ideal(4, 5, 1)
        dual = DualCohomology(I)
        h1 = list(dual.rao_dims(-3, 2).values())
        h1[2] += 1
        with pytest.raises(InternalCheckError, match="Riemann-Roch"):
            h2_table(dual, _table(I, (-3, 2)), h1)

    def test_acm_space_quintic_values(self):
        # ex45 (n, d, g) = (3, 5, 3): ACM, so F*_{n-1}/im a alone gives h2
        I = extremal_curve_ideal(3, 5, 3)
        dual = DualCohomology(I)
        assert dual.acm
        h1 = list(dual.rao_dims(-2, 1).values())
        assert h1 == [0, 0, 0, 0]
        assert h2_table(dual, _table(I, (-2, 1)), h1) == [12, 7, 3, 1]

    def test_non_acm_quintic_in_p4_values(self):
        # ex45 (n, d, g) = (4, 5, 1): h1 and h2 both nonzero at j = -1, 0
        I = extremal_curve_ideal(4, 5, 1)
        dual = DualCohomology(I)
        assert not dual.acm
        h1 = list(dual.rao_dims(-3, 2).values())
        assert h1 == [0, 0, 1, 2, 1, 1]
        assert h2_table(dual, _table(I, (-3, 2)), h1) == [15, 10, 6, 3, 1, 0]

    def test_an_off_by_one_coimage_fails_riemann_roch(self, monkeypatch):
        # the coimage of b, a Gröbner run apart from the Rao dual's, one too
        # large at e = -5 (j = 0): Riemann-Roch ties the two runs together
        I = extremal_curve_ideal(4, 5, 1)
        dual = DualCohomology(I)
        h1 = list(dual.rao_dims(-3, 2).values())
        window, coimage = cohomology.series_values, dual.coimage_b.series

        def off_by_one(terms, nvars, lo, hi):
            values = window(terms, nvars, lo, hi)
            if terms is coimage and lo <= -5 <= hi:
                values[-5 - lo] += 1
            return values

        monkeypatch.setattr(cohomology, "series_values", off_by_one)
        with pytest.raises(InternalCheckError, match="Riemann-Roch identity failed at degree 0"):
            h2_table(dual, _table(I, (-3, 2)), h1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("fault", ["dropped", "shifted"])
    def test_a_twist_off_the_hilbert_numerator_raises(self, k, fault):
        # h2 reads the twists, so they are certified: one twist of F_k
        # dropped, or shifted up by one, misses the Hilbert numerator of in(I)
        I = extremal_curve_ideal(4, 5, 1)
        res = I.resolution()
        level = list(res.twists[k])
        if fault == "dropped":
            level.pop()
        else:
            level[-1] += 1
        res.twists[k] = tuple(level)
        with pytest.raises(InternalCheckError, match="twists miss the Hilbert numerator"):
            DualCohomology(I)

    @staticmethod
    def _dual_with_a_scaled_entry():
        """The dual complex of ex45 (4, 5, 1) with one entry of a doubled:
        the image of a basis vector picks up entry * e_r, which b does not
        kill, so im a leaves ker b."""
        I = extremal_curve_ideal(4, 5, 1)
        dual = DualCohomology(I)
        res, n = dual.res, I.ring.n
        fields = field_cols(res)
        a, b = fields[n - 2], fields[n - 1]
        r, s = next((r, s) for r, col in enumerate(a) for s in col if any(r in bcol for bcol in b))
        cols = [[dict(col) for col in level] for level in fields]
        cols[n - 2][r][s] = {key: 2 * c for key, c in a[r][s].items()}
        dual.res = field_resolution_data(I.ring, res.twists, cols)
        return dual

    def test_image_outside_the_kernel_raises(self):
        with pytest.raises(InternalCheckError):
            self._dual_with_a_scaled_entry().h2_values(0, 0)

    def test_the_complex_check_runs_before_and_without_the_engine(self, monkeypatch):
        # b·a = 0 is a product of the dual rows: with no graph basis to be
        # had, the scaled entry still raises, so the check runs first
        class Sentinel(Exception):
            pass

        def no_graph_basis(*args):
            raise Sentinel

        dual = self._dual_with_a_scaled_entry()
        monkeypatch.setattr(cohomology, "GraphBasis", no_graph_basis)
        with pytest.raises(InternalCheckError, match="dual complex image missed the kernel"):
            dual.h2_values(0, 0)


class TestHyperplaneSection:
    def test_space_quartic(self):
        I = extremal_curve_ideal(3, 4, 0)
        values = drawn_section_values(I, 4, seed=3)
        assert values[1:4] == [3, 4, 4]

    def test_draw_with_a_section_point_on_the_last_hyperplane_is_rejected(self, monkeypatch):
        # ex45 (n, d, a) = (3, 3, 1): this first draw passes the
        # non-zerodivisor test, but the last variable of the cut vanishes
        # at a section point; saturating by it gives the unit ideal, so
        # accepting the draw would report [0, 0, 0, 0]
        special = [[1, 0, 0, 0], [-1, 1, 0, 0], [-1, -1, 1, 0], [0, 0, 1, 1]]
        draws = []

        def special_first(ring, rng, bound):
            draws.append(random_unipotent_matrix(ring, rng, bound) if draws else special)
            return draws[-1]

        monkeypatch.setattr(cohomology, "random_unipotent_matrix", special_first)
        I = extremal_curve_ideal(3, 3, -1)
        hvals = [I.initial_ideal().quotient_dim(j) for j in range(I.resolution().regularity() + 3)]
        values, matrix = hyperplane_section(I, 3, hvals, seed=0)
        assert draws[0] is special and matrix is not special
        assert values[1:] == [3, 3, 3, 3]

    def test_conic_section(self):
        # plane conic in P^3: two points
        x0, x1, x2, x3 = R4.gens()
        I = Ideal(R4, [x3, x0 * x2 - x1 * x1])
        hvals = [1, 3, 5, 7, 9]  # degrees 0 to reg + 2, reg = 2
        values, _ = hyperplane_section(I, 2, hvals, seed=5)
        assert values[:3] == [1, 2, 2]

    def test_not_collinear_in_p5(self):
        I = extremal_curve_ideal(5, 6, -2)
        values = drawn_section_values(I, 6, seed=2)
        assert values[1] == 3

    @pytest.mark.parametrize("n,d,a", [(3, 4, 0), (3, 5, 1), (4, 4, 1)])
    def test_lead_preserving_draws_exhaust_the_section(self, n, d, a, monkeypatch):
        # the transposed shape x_i -> x_i + (terms in x_j, j > i) keeps
        # x_n = 0 as the hyperplane, which contains the line supporting
        # these curves: a draw of the swapped convention is never generic
        def upper_triangular(ring, rng, bound):
            m = ring.nvars
            return [[rng.randint(-bound, bound) if j > i else int(i == j) for j in range(m)] for i in range(m)]

        I = extremal_curve_ideal(n, d, max_genus(n, d) - a)
        assert drawn_section_values(I, d, seed=3)[d + 1] == d
        monkeypatch.setattr(cohomology, "random_unipotent_matrix", upper_triangular)
        with pytest.raises(InternalCheckError, match="exhausted draws"):
            drawn_section_values(I, d, seed=3)

    def test_the_read_off_the_initial_ideal_in_given_coordinates_fails(self):
        # negative control: in(I) in the given coordinates is not the gin.
        # The line supporting the ex45 curves lies in {x_n = 0}: read as it
        # stands, in(I) has generators in x_n, and restricted to x_n = 0 it
        # gives a section with no points, where the drawn section has d
        for n in (3, 4):
            for d in range(3, 7):
                for a in range(3):
                    I = extremal_curve_ideal(n, d, max_genus(n, d) - a)
                    assert drawn_section_values(I, d, seed=a)[d + 1] == d
                    lead = I.initial_ideal()
                    with pytest.raises(InternalCheckError, match="involves the last variable"):
                        general_section_values(lead, d)
                    restricted = MonomialIdeal(n + 1, [m for m in lead.gens if not m[n]])
                    with pytest.raises(InternalCheckError, match=f"has 0 points, not {d}"):
                        general_section_values(restricted, d)


def _planar_cases():
    """Catalog curves in P^3 to P^5 and seeded random constructions, over
    QQ and one over Z/7, each with its degree."""
    cases = [
        (extremal_curve_ideal(n, d, max_genus(n, d) - a), d) for n in (3, 4, 5) for d in (3, 4, 5, 6) for a in (0, 2)
    ]
    cases += [(cubic_alternate_curve_ideal(5, 1), 3), (non_extremal_witness(4, 1, 4).ideal, 4)]
    for s in range(16):
        rng = random.Random(s)
        n, d, a = rng.randint(3, 5), rng.randint(3, 6), rng.randint(0, 2)
        cases.append((construct_curve(random_construction_input(n, d, a, rng)), d))
    I = extremal_curve_ideal(5, 5, max_genus(5, 5) - 1)
    R7 = PolyRing(6, PrimeField(7))
    cases.append((Ideal(R7, [Polynomial(R7, p.terms) for p in I.gens]), 5))
    return cases


class TestPlanarSubcurve:
    def test_coordinate_plane_hit(self):
        I = extremal_curve_ideal(3, 5, 0)
        assert planar_subcurve_check(I, 5)

    def test_random_plane_misses(self):
        # x3 -> x3 - 17 x0 moves the plane 17 x0 + x3 = 0 to x3 = 0
        I = extremal_curve_ideal(3, 5, 0)
        x0, x3 = R4.gen(0), R4.gen(3)
        matrix = [[int(i == j) for j in range(4)] for i in range(4)]
        matrix[3][0] = -17
        assert not planar_subcurve_check(change_coordinates(I, matrix), 5)
        assert not planar_subcurve_by_forms(I, [17 * x0 + x3], 5)

    def test_plane_curve_has_full_degree(self):
        # degree-d plane curve against its own plane: degree d, not d-1
        x2, x3 = R4.gen(2), R4.gen(3)
        I = Ideal(R4, [x2 ** 4, x3])
        assert not planar_subcurve_check(I, 4)

    def test_the_cut_is_read_off_the_initial_ideal(self):
        # in(I + (x_k, ..., x_n)) = in(I) + (x_k, ..., x_n) under revlex, for
        # every tail, against the cut's own Buchberger run; and the planar
        # verdict against the one read off that run
        cases = 0
        for I, d in _planar_cases():
            ring = I.ring
            lead = I.initial_ideal()
            for k in range(ring.nvars):
                tail = [ring.var_mono(i) for i in range(k, ring.nvars)]
                cut = Ideal(ring, list(I.gens) + [ring.gen(i) for i in range(k, ring.nvars)])
                assert MonomialIdeal(ring.nvars, list(lead.gens) + tail) == cut.initial_ideal(), (I, k)
                cases += 1
            plane = [ring.gen(i) for i in range(3, ring.nvars)]
            assert planar_subcurve_check(I, d) == planar_subcurve_by_forms(I, plane, d)
        assert cases >= 150

    def test_the_check_makes_no_groebner_run_beyond_the_ideal_own(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise RuntimeError("the planar check started a Gröbner engine")

        verdicts = []
        for n, d in ((3, 5), (4, 6), (5, 5)):
            I = extremal_curve_ideal(n, d, max_genus(n, d) - 1)
            I.initial_ideal()
            with monkeypatch.context() as patch:
                patch.setattr(groebner._Engine, "__init__", forbidden)
                verdicts.append(planar_subcurve_check(I, d))
        assert verdicts == [True, True, True]


class TestVerifyExtremal:
    def test_space_quartic_all_checks(self):
        rep = verify_extremal(extremal_curve_ideal(3, 4, 0), seed=1).document
        assert rep["verdict"] == "extremal"
        assert all(rep["h1"]["matches"])
        assert rep["h2"]["match"]
        assert rep["gin"]["match"] == "primary"
        betti = rep["betti"]
        assert betti["checked"] and betti["match_expected"] and betti["match_gin"]
        assert rep["rao"]["match"] and rep["rao"]["annihilator_match"]
        assert rep["hyperplane_section"]["match"]
        assert rep["planar_subcurve"]["verdict"]  # d = 4 with a = 1

    def test_witness_not_extremal(self):
        c = CurveAnalysis(non_extremal_witness(4, 1, 4).ideal, seed=1)
        assert not c.extremal
        assert next(j for j, x, y in zip(c.degrees, c.h1, c.profile.h1) if x != y) == 2

    def test_degenerate_rejected(self):
        x2, x3 = R4.gen(2), R4.gen(3)
        with pytest.raises(DegenerateCurveError):
            verify_extremal(Ideal(R4, [x2 ** 4, x3]), seed=1)

    def test_degree_two_double_line(self):
        c = CurveAnalysis(extremal_curve_ideal(3, 2, -1), seed=1)
        assert c.extremal
        assert (c.spec.d, c.spec.g) == (2, -1)


class TestCurveAnalysis:
    def test_verify_extremal_computes_each_invariant_once(self, monkeypatch):
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("hilbert_table", "deficiency_module", "h2_table", "compute_gin", "hyperplane_section"):
            monkeypatch.setattr(cohomology, name, counted(name, getattr(cohomology, name)))
        duals, rao_degrees = [], []
        dual_init = counted("DualCohomology", DualCohomology.__init__)

        def recorded_dual(self, I):
            dual_init(self, I)
            duals.append(self)

        def recorded_hf(module, degree):
            if any(module is dual.rao_dual for dual in duals):
                rao_degrees.append(degree)
            return hf(module, degree)

        def recorded_window(terms, nvars, lo, hi):
            # the verdict reads the Rao dual's series once per window
            if any(terms is dual.rao_dual.series for dual in duals):
                rao_degrees.extend(range(lo, hi + 1))
            return window(terms, nvars, lo, hi)

        curve = extremal_curve_ideal(3, 4, 0)

        def derived(lead):
            # the curve's (d, g), or that of its cut by the plane x3 = 0
            name = "curve (d, g)" if lead is curve.initial_ideal() else "plane cut (d, g)"
            calls[name] = calls.get(name, 0) + 1
            return detect(lead)

        hf, detect = PresentedModule.hf, cohomology.detect_hilbert_polynomial
        window = cohomology.series_values
        monkeypatch.setattr(DualCohomology, "__init__", recorded_dual)
        monkeypatch.setattr(PresentedModule, "hf", recorded_hf)
        monkeypatch.setattr(cohomology, "series_values", recorded_window)
        monkeypatch.setattr(cohomology, "detect_hilbert_polynomial", derived)
        # d = 4 with a = 1: every check of the report runs
        rep = verify_extremal(curve, seed=1).document
        assert rep["gin"]["checked"] and rep["betti"]["checked"] and rep["planar_subcurve"]["checked"]
        # the sections are read off the gin: no hyperplane is drawn
        assert calls == {
            "DualCohomology": 1, "hilbert_table": 1, "deficiency_module": 1, "h2_table": 1,
            "compute_gin": 1, "curve (d, g)": 1, "plane cut (d, g)": 1,
        }
        # each degree of the Rao dual is evaluated at most once
        assert rao_degrees and len(rao_degrees) == len(set(rao_degrees))

    def test_a_verdict_draws_no_hyperplane(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise RuntimeError("the verdict drew a hyperplane")

        curve = extremal_curve_ideal(3, 4, 0)
        expected = verify_extremal(Ideal(curve.ring, list(curve.gens)), seed=1).to_json()
        monkeypatch.setattr(cohomology, "hyperplane_section", forbidden)
        monkeypatch.setattr(cohomology, "random_unipotent_matrix", forbidden)
        monkeypatch.setattr(ideals, "random_unipotent_matrix", forbidden)
        report = verify_extremal(curve, seed=1)
        doc = report.document
        assert doc["gin"]["checked"] and doc["betti"]["checked"] and doc["planar_subcurve"]["checked"]
        assert doc["hyperplane_section"]["match"] and doc["seeds"]["hyperplane"] is None
        assert report.to_json() == expected

    def test_probe_builds_no_multiplication_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise RuntimeError("the probe built a multiplication matrix")

        monkeypatch.setattr(PresentedModule, "mult_matrix", forbidden)
        # ex45 (4, 5, 1) is not ACM: its h1 comes from a nonzero Rao dual
        assert any(constructed_curve_probe(extremal_curve_ideal(4, 5, 1))["h1"])

    def test_probe_reads_the_integers_of_all_but_the_last_map(self, monkeypatch):
        # a random construction in P^4 whose resolution has length 4 (not
        # ACM): the probe's h1 builds the dual rows of F_4 -> F_3 only, and
        # the ideal's Gröbner basis stays in engine integers throughout
        maps = []

        def counted(res, k):
            if k not in res._dual:  # the rows are built on this read
                maps.append((len(res.twists[k + 1]), len(res.twists[k])))
            return dual(res, k)

        dual = modules.ResolutionData.dual
        monkeypatch.setattr(modules.ResolutionData, "dual", counted)
        I = construct_curve(random_construction_input(4, 4, 1, random.Random(0)))
        probe = constructed_curve_probe(I)
        res = I.resolution()
        last, before = (len(res.twists[4]), len(res.twists[3])), (len(res.twists[3]), len(res.twists[2]))
        assert res.length == 4 and any(probe["h1"])
        assert maps == [last]
        # a verdict's h2 adds the map before it, and nothing else
        assert CurveAnalysis(I).h2 is not None
        assert maps == [last, before]
        # a fresh verdict builds each map's rows once: the Rao dual and the
        # graph basis of h2 share the rows of the last map
        maps.clear()
        J = Ideal(I.ring, list(I.gens))
        assert CurveAnalysis(J).h2 is not None
        assert maps == [last, before]

    @staticmethod
    def _non_acm_draws():
        """(seed, ideal, whether the dual rows of its last map have more
        than one distinct lcm of denominators) for the seeded random
        constructions over QQ of 60 seeds that are not ACM."""
        for s in range(60):
            rng = random.Random(s)
            n, d, a = rng.randint(3, 5), rng.randint(3, 6), rng.randint(0, 3)
            I = construct_curve(random_construction_input(n, d, a, rng))
            res = I.resolution()
            if res.length == n:
                yield s, I, len(set(denominator_lcms(res.dual(n - 1)))) > 1

    def test_h2_of_random_non_acm_constructions(self):
        # h2 checks that the image of a lies in the kernel of b, and
        # Riemann-Roch at every degree.  Many draws have rows with unequal
        # denominators in the dual of the last map, where a graph basis that
        # cleared each column's denominators and left its unit at 1 would
        # compute the kernel of the wrong map.
        unequal = 0
        for s, I, differ in self._non_acm_draws():
            c = CurveAnalysis(I)
            assert len(c.h2) == len(c.degrees), s
            unequal += differ
        assert unequal >= 20

    def test_last_dual_rows_scaled_by_their_lcms_miss_the_kernel(self, monkeypatch):
        # the negative control: each row b_t of the last dual map cleared of
        # its denominators, times its lcm m_t, makes b·a the sum of the
        # a_rt m_t b_t, no longer zero wherever the lcms differ, and the
        # check that b·a = 0 catches every one; the Rao dual's relations
        # scale by units and do not move
        differ = [(s, I) for s, I, unequal in self._non_acm_draws() if unequal]
        assert len(differ) >= 20
        dual = modules.ResolutionData.dual

        def scaled(res, k):
            rows = dual(res, k)
            if k != res.ring.n - 1:
                return rows
            return [{s: {key: v * m for key, v in e.items()} for s, e in row.items()}
                    for row, m in zip(rows, denominator_lcms(rows))]

        monkeypatch.setattr(modules.ResolutionData, "dual", scaled)
        for s, I in differ:
            with pytest.raises(InternalCheckError, match="dual complex image missed the kernel"):
                CurveAnalysis(I).h2

    def test_statements_that_do_not_apply_read_none(self):
        c = CurveAnalysis(extremal_curve_ideal(3, 2, -1), seed=1)
        assert c.gin is None and c.section_values is None
        assert c.betti is None and c.planar is None and c.rao_expected is None
