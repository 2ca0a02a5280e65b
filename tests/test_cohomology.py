import pytest

import extremalcurves.cohomology as cohomology
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
from extremalcurves.construct import extremal_curve_ideal, non_extremal_witness
from extremalcurves.formulas import max_genus
from extremalcurves.ideals import Ideal
from extremalcurves.modules import PresentedModule, ResolutionData
from extremalcurves.ring import PolyRing, Polynomial, PrimeField
from reference import multiplication_commutes

R4 = PolyRing(4)


def _table(I, window):
    """The Hilbert table with the curve data detected, as a verdict does."""
    return hilbert_table(I, window, *detect_hilbert_polynomial(I))


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

    def test_image_outside_the_kernel_raises(self):
        # scale one entry of a: the image of a basis vector picks up
        # entry * e_r, which b does not kill, so im a leaves ker b
        I = extremal_curve_ideal(4, 5, 1)
        dual = DualCohomology(I)
        res, n = dual.res, I.ring.n
        a, b = res.cols[n - 2], res.cols[n - 1]
        r, s = next((r, s) for r, col in enumerate(a) for s in col if any(r in bcol for bcol in b))
        cols = [[dict(col) for col in level] for level in res.cols]
        cols[n - 2][r][s] = {key: 2 * c for key, c in a[r][s].items()}
        dual.res = ResolutionData(I.ring, res.twists, cols)
        with pytest.raises(InternalCheckError):
            dual.h2_value(0)


class TestHyperplaneSection:
    def test_space_quartic(self):
        I = extremal_curve_ideal(3, 4, 0)
        values = general_section_values(I, 4, seed=3)
        assert values[1:4] == [3, 4, 4]

    def test_draw_with_a_section_point_on_the_last_hyperplane_is_rejected(self):
        # ex45 (n, d, a) = (3, 3, 1) at this seed (the catalog_analyze item
        # ex45/n3d3a1#0 of bench seed 110): two of the three sections first
        # drew a cut whose one point lies on {x_last = 0}; saturating by
        # x_last then gave the unit ideal and values [0, 0, 0, 0]
        I = extremal_curve_ideal(3, 3, -1)
        report = verify_extremal(I, seed=8187606606260888246)
        assert report.section_values == [3, 3, 3, 3]
        assert report.section_match

    def test_conic_section(self):
        # plane conic in P^3: two points
        x0, x1, x2, x3 = R4.gens()
        I = Ideal(R4, [x3, x0 * x2 - x1 * x1])
        hvals = [1, 3, 5, 7, 9]  # degrees 0 to reg + 2, reg = 2
        values, _ = hyperplane_section(I, 2, hvals, seed=5)
        assert values[:3] == [1, 2, 2]

    def test_not_collinear_in_p5(self):
        I = extremal_curve_ideal(5, 6, -2)
        values = general_section_values(I, 6, seed=2)
        assert values[1] == 3


class TestPlanarSubcurve:
    def test_coordinate_plane_hit(self):
        I = extremal_curve_ideal(3, 5, 0)
        assert planar_subcurve_check(I, [R4.gen(3)], 5)

    def test_random_plane_misses(self):
        I = extremal_curve_ideal(3, 5, 0)
        x0, x3 = R4.gen(0), R4.gen(3)
        assert not planar_subcurve_check(I, [x0 + 17 * x3], 5)

    def test_plane_curve_has_full_degree(self):
        # degree-d plane curve against its own plane: degree d, not d-1
        x2, x3 = R4.gen(2), R4.gen(3)
        I = Ideal(R4, [x2 ** 4, x3])
        assert not planar_subcurve_check(I, [x3], 4)

    def test_dependent_plane_rejected(self):
        I = extremal_curve_ideal(4, 5, 1)
        x3 = PolyRing(5).gen(3)
        with pytest.raises(ValueError):
            planar_subcurve_check(I, [x3, x3], 5)

    def test_forms_dependent_mod_p_rejected(self):
        # 4 * (2*x3 + x4) = x3 + 4*x4 over Z/7, though not over QQ
        I = extremal_curve_ideal(5, 5, max_genus(5, 5) - 1)
        R7 = PolyRing(6, PrimeField(7))
        J = Ideal(R7, [Polynomial(R7, p.terms) for p in I.gens])
        x3, x4, x5 = R7.gen(3), R7.gen(4), R7.gen(5)
        with pytest.raises(ValueError, match="dependent"):
            planar_subcurve_check(J, [2 * x3 + x4, x3 + 4 * x4, x5], 5)


class TestVerifyExtremal:
    def test_space_quartic_all_checks(self):
        rep = verify_extremal(extremal_curve_ideal(3, 4, 0), seed=1)
        assert rep.verdict == "extremal"
        assert all(rep.h1_matches)
        assert rep.h2_match
        assert rep.gin_match == "primary"
        assert rep.betti_checked and rep.betti_match and rep.betti_gin_match
        assert rep.rao_match and rep.annihilator_match
        assert rep.section_match
        assert rep.planar_verdict  # d = 4 with a = 1

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

        for name in ("hilbert_table", "deficiency_module", "h2_table", "hyperplane_section"):
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

        curve = extremal_curve_ideal(3, 4, 0)

        def derived(I):
            # the curve's (d, g), or that of the curve plus the plane's forms
            name = "curve (d, g)" if I is curve else "plane cut (d, g)"
            calls[name] = calls.get(name, 0) + 1
            return detect(I)

        hf, detect = PresentedModule.hf, cohomology.detect_hilbert_polynomial
        monkeypatch.setattr(DualCohomology, "__init__", recorded_dual)
        monkeypatch.setattr(PresentedModule, "hf", recorded_hf)
        monkeypatch.setattr(cohomology, "detect_hilbert_polynomial", derived)
        # d = 4 with a = 1: every check of the report runs
        rep = verify_extremal(curve, seed=1)
        assert rep.gin_checked and rep.betti_checked and rep.planar_checked
        assert calls.pop("hyperplane_section") >= 2
        assert calls == {
            "DualCohomology": 1, "hilbert_table": 1, "deficiency_module": 1, "h2_table": 1,
            "curve (d, g)": 1, "plane cut (d, g)": 1,
        }
        # each degree of the Rao dual is evaluated at most once
        assert rao_degrees and len(rao_degrees) == len(set(rao_degrees))

    def test_probe_builds_no_multiplication_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise RuntimeError("the probe built a multiplication matrix")

        monkeypatch.setattr(PresentedModule, "mult_matrix", forbidden)
        # ex45 (4, 5, 1) is not ACM: its h1 comes from a nonzero Rao dual
        assert any(constructed_curve_probe(extremal_curve_ideal(4, 5, 1))["h1"])

    def test_statements_that_do_not_apply_read_none(self):
        c = CurveAnalysis(extremal_curve_ideal(3, 2, -1), seed=1)
        assert c.gin is None and c.section_values is None and c.section_seed is None
        assert c.betti is None and c.planar is None and c.rao_expected is None
