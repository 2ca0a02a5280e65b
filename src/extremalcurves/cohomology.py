"""Curve invariants from a saturated ideal: Hilbert data, the deficiency
(Hartshorne-Rao) module, second cohomology, hyperplane sections, planar
subcurves, and the extremality verdict.

Cohomology is extracted by graded duality on the minimal free resolution:
the deficiency module is the cokernel of the transposed last map, second
cohomology the middle homology of the dual complex as a difference of two
presented quotients of its middle term; Hilbert functions of presented
modules reduce to standard monomial counts.  Everything cross-asserts
against the Riemann-Roch identity h_C(j) - p_C(j) = -h1(j) + h2(j).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .formulas import (
    CurveSpec,
    bound_profile,
    expected_annihilator_degrees,
    expected_betti,
    expected_gin,
    expected_rao_hf,
    max_genus,
    rao_structure_excluded,
)
from .gin import gin as compute_gin, mix_seed
from .groebner import initial_monomials, linear_images
from .ideals import Ideal, is_saturated, random_invertible_matrix
from .modules import GraphBasis, PresentedModule
from .monomials import MonomialIdeal, ek_betti
from .oracle import fraction_rank
from .report import CurveReport
from .ring import PolyRing, format_mono


class NotACurveError(ValueError):
    """The ideal does not define a one-dimensional scheme."""


class DegenerateCurveError(ValueError):
    """The ideal contains a linear form."""


class NotLocallyCohenMacaulayError(ValueError):
    """The curve has embedded or isolated points: its deficiency module is
    not of finite length."""


class InternalCheckError(AssertionError):
    """A proven identity failed: upstream bug, not a property of the input."""


# ---------------------------------------------------------------------------
# Hilbert data


@dataclass(frozen=True)
class HilbertTable:
    window: tuple
    dims: tuple
    degree: int
    genus: int
    regularity: int

    def at(self, j):
        lo, hi = self.window
        if not lo <= j <= hi:
            raise IndexError(f"degree {j} outside the window")
        return self.dims[j - lo]

    def polynomial_value(self, j):
        return self.degree * j - self.genus + 1


def detect_hilbert_polynomial(I: Ideal):
    """(degree, arithmetic genus) of a curve, whose Hilbert polynomial is
    d j + 1 - g, read off the Hilbert numerator.  With N(t) = (1-t)^k Q(t)
    and Q(1) != 0 the quotient has dimension nvars - k; for dimension two
    d = Q(1) and g = 1 - Q(1) + Q'(1).  Any other dimension, the unit ideal
    included, raises NotACurveError."""
    q = list(I.initial_ideal().hilbert_numerator())
    k = 0
    while any(q) and sum(q) == 0:  # divide by (1 - t): partial sums
        q = [sum(q[: i + 1]) for i in range(len(q) - 1)]
        k += 1
    if not any(q) or I.ring.nvars - k != 2:
        raise NotACurveError(
            "the quotient does not have dimension two: the ideal does not define a curve"
        )
    return sum(q), 1 - sum(q) + sum(i * c for i, c in enumerate(q))


def hilbert_table(I: Ideal, window, degree: int, genus: int) -> HilbertTable:
    """Hilbert function of the quotient over a window, with the curve's
    degree and genus (from `detect_hilbert_polynomial`)."""
    lo, hi = window
    lead = I.initial_ideal()
    dims = tuple(lead.quotient_dim(j) for j in range(lo, hi + 1))
    return HilbertTable(
        window=(lo, hi),
        dims=dims,
        degree=degree,
        genus=genus,
        regularity=I.resolution().regularity(),
    )


# ---------------------------------------------------------------------------
# duality


def _dual_map(res, level):
    """Hom(-, R) of the map F_level -> F_{level-1}: one packed vector over
    F_level per basis element of F_{level-1}."""
    rows = [{} for _ in res.twists[level - 1]]
    for c, col in enumerate(res.cols[level - 1]):
        for r, e in col.items():
            rows[r][c] = e
    return rows


class DualCohomology:
    """Ext modules at the last two homological positions of R/I; the second
    cohomology side is built lazily since many callers only need h1."""

    def __init__(self, I: Ideal):
        self.ring = I.ring
        res = I.resolution()
        n = self.ring.n
        if res.length > n:
            raise InternalCheckError(
                "resolution longer than the ambient dimension for a saturated curve"
            )
        if res.length < n - 1:
            raise NotACurveError("projective dimension too small for a curve quotient")
        self.res = res
        self.acm = res.length == n - 1
        self._h2_parts = None
        if self.acm:
            self.rao_dual = PresentedModule(self.ring, [], [])
        else:
            # coker(Hom(F_{n-1}, R) -> Hom(F_n, R))
            self.rao_dual = PresentedModule(self.ring, [-w for w in res.twists[n]], _dual_map(res, n))
            if not self.rao_dual.is_finite_length():
                raise NotLocallyCohenMacaulayError(
                    "the curve is not locally Cohen-Macaulay (it has embedded "
                    "or isolated points): its deficiency module is not of finite length"
                )

    @property
    def h2_parts(self):
        """(F*_{n-1}/im a, F*_{n-1}/ker b) for the dual complex
        F*_{n-2} -a-> F*_{n-1} -b-> F*_n: since im a lies in ker b, h2 is the
        difference of their Hilbert functions.  In the ACM case b = 0."""
        if self._h2_parts is None:
            res, ring, n = self.res, self.ring, self.ring.n
            a = _dual_map(res, n - 1)
            coker_a = PresentedModule(ring, [-w for w in res.twists[n - 1]], a)
            coimage_b = PresentedModule(ring, [], [])
            if not self.acm:
                b = GraphBasis(_dual_map(res, n), [-w for w in res.twists[n]], ring)
                coimage_b = PresentedModule(ring, [-w for w in res.twists[n - 1]], b.kernel_generators())
                if any(coimage_b.reduce(image) for image in a):
                    raise InternalCheckError("dual complex image missed the kernel")
            self._h2_parts = (coker_a, coimage_b)
        return self._h2_parts

    def rao_dims(self, lo: int, hi: int) -> dict:
        """{j: dim M_j} for lo <= j <= hi, zeros included: M_j = H^1(I_C(j))
        is dual to the dual module's piece in degree -j - nvars."""
        nvars = self.ring.nvars
        return {j: self.rao_dual.hf(-j - nvars) for j in range(lo, hi + 1)}

    def h2_value(self, j: int) -> int:
        coker_a, coimage_b = self.h2_parts
        e = -j - self.ring.nvars
        return coker_a.hf(e) - coimage_b.hf(e)


@dataclass
class FiniteLengthModule:
    """Per-degree dimensions with multiplication matrices between them."""

    dims: dict
    mult: dict  # (var, j) -> matrix taking degree j to j+1 (rows: target)
    generator_count: int
    generator_degrees: list
    annihilator_degrees: list | None

    def dim(self, j):
        return self.dims.get(j, 0)


def deficiency_module(dual: DualCohomology, table) -> FiniteLengthModule:
    """The Hartshorne-Rao module from the dual complex and its dimension
    table over the window widened by 2 (`DualCohomology.rao_dims`):
    dimensions, multiplication maps, generator data, and (for cyclic
    modules) the minimal generator degrees of the annihilator."""
    nvars = dual.ring.nvars
    lo, hi = min(table), max(table)
    dims = {j: v for j, v in table.items() if v}
    if dims and (min(dims) <= lo or max(dims) >= hi):
        raise InternalCheckError("deficiency module support leaks out of the window")
    mult = {}
    for j in range(lo, hi):
        e_next = -(j + 1) - nvars
        live = dims.get(j) and dims.get(j + 1)
        for v in range(nvars):
            # x_v on the dual module at degree e_next has target degree
            # e_next + 1 = -j - nvars; its lists, one per source element,
            # are the rows of x_v : M_j -> M_{j+1} on the module itself.
            # A map to or from a zero piece is the empty matrix.
            mult[(v, j)] = dual.rao_dual.mult_matrix(v, e_next) if live else []
    ranks = _stacked_ranks(dims, mult, nvars)
    gen_count = 0
    gen_degrees = []
    for j in sorted(dims):
        # the part of M_j not reached from M_{j-1} needs fresh generators
        fresh = dims[j] - ranks.get(j, 0)
        gen_count += fresh
        gen_degrees.extend([j] * fresh)
    ann = None
    if gen_count <= 1 and dims:
        ann = _annihilator_degrees(dims, mult, nvars, ranks)
    return FiniteLengthModule(
        dims=dims,
        mult=mult,
        generator_count=gen_count,
        generator_degrees=gen_degrees,
        annihilator_degrees=ann,
    )


def _stacked_ranks(dims, mult, nvars):
    """{t: rank of the combined multiplication M_{t-1}^nvars -> M_t} for
    every t with both pieces nonzero; every other such rank is zero."""
    ranks = {}
    for t, dim_here in dims.items():
        if dims.get(t - 1):
            rows = [[c for v in range(nvars) for c in mult[(v, t - 1)][r]] for r in range(dim_here)]
            ranks[t] = fraction_rank(rows)
    return ranks


def _annihilator_degrees(dims, mult, nvars, ranks):
    """Minimal generator degrees of the annihilator of a cyclic module,
    read off the first Koszul homology of the module; ranks as from
    `_stacked_ranks`."""
    j0 = min(dims)
    top = max(dims)
    out = []
    for t in range(j0 + 1, top + 3):
        dim_prev = dims.get(t - 1, 0)
        if not dim_prev:
            continue
        # kernel of the combined multiplication into degree t
        ncols = nvars * dim_prev
        ker_dim = ncols - ranks.get(t, 0)
        # image of the Koszul two-form map
        dim_prev2 = dims.get(t - 2, 0)
        b_cols = []
        for v in range(nvars):
            for w in range(v + 1, nvars):
                for b in range(dim_prev2):
                    col = [0] * ncols
                    for r in range(dim_prev):
                        col[v * dim_prev + r] += mult[(w, t - 2)][r][b]
                        col[w * dim_prev + r] -= mult[(v, t - 2)][r][b]
                    b_cols.append(col)
        rank_b = fraction_rank(b_cols) if b_cols else 0
        h1 = ker_dim - rank_b
        if h1 < 0:
            raise InternalCheckError("negative Koszul homology dimension")
        out.extend([t - j0] * h1)
    return sorted(out)


def h2_table(dual: DualCohomology, hilbert: HilbertTable, h1_values):
    """Second cohomology over the Hilbert table's window, with the
    Riemann-Roch identity asserted at every degree against the h1 values
    over that window."""
    lo, hi = hilbert.window
    values = []
    for j, h1 in zip(range(lo, hi + 1), h1_values, strict=True):
        h2 = dual.h2_value(j)
        lhs = hilbert.at(j) - hilbert.polynomial_value(j)
        if lhs != -h1 + h2:
            raise InternalCheckError(
                f"Riemann-Roch identity failed at degree {j}: "
                f"{lhs} != -{h1} + {h2}"
            )
        values.append(h2)
    return values


# ---------------------------------------------------------------------------
# hyperplane sections and planar subcurves


def hyperplane_section(I: Ideal, degree: int, hvals, seed: int = 0):
    """Section by a general hyperplane of a curve of the given degree whose
    Hilbert values in degrees 0 to reg + 2 are hvals: the section's Hilbert
    values through degree + 1, and the drawn matrix.

    A seeded generic coordinate change moves the hyperplane to {x_n = 0};
    the cut is the image with the matrix's last column dropped, and only
    its leads are read (a lead-only engine run).  Its saturation with the
    last remaining variable (generic inside the hyperplane) has the cut's
    leads with the last exponent set to 0 as its initial ideal
    (Bayer-Stillman), so the values are read off those leads and no
    section ideal is built.  Of up to 12 draws, those whose cut
    fails the non-zerodivisor Hilbert test h(R/(I+l))_j = h_C(j) - h_C(j-1)
    in low degrees are rejected, and so are those whose saturated cut has
    fewer than degree points at degree + 1: there the last variable
    vanishes at a section point, so it is not generic inside the
    hyperplane."""
    ring = I.ring
    target = PolyRing(ring.nvars - 1, ring.field)
    last = target.nvars - 1
    for attempt in range(12):
        rng = random.Random(mix_seed(seed, attempt, 77))
        matrix = random_invertible_matrix(ring, rng, 20)
        cut = linear_images(I.gens, [row[:-1] for row in matrix], target)
        if not cut:
            continue
        cut_dims = initial_monomials(cut, None, target)
        ok = all(
            cut_dims.quotient_dim(j) == hvals[j] - (hvals[j - 1] if j else 0)
            for j in range(len(hvals))
        )
        if not ok:
            continue
        lead = MonomialIdeal(target.nvars, [m[:last] + (0,) for m in cut_dims.gens])
        values = [lead.quotient_dim(j) for j in range(0, degree + 2)]
        if values[-1] != degree:  # section points on {x_last = 0}
            continue
        return values, matrix
    raise InternalCheckError("exhausted draws without a non-zerodivisor hyperplane")


def general_section_values(I: Ideal, degree: int, seed: int = 0):
    """Hilbert values of the general hyperplane section of a curve of the
    given degree: two independent draws must agree (a third breaks ties),
    guarding against a special hyperplane slipping past the non-zerodivisor
    test.  The curve's Hilbert values are derived once for all draws."""
    lead = I.initial_ideal()
    hvals = [lead.quotient_dim(j) for j in range(I.resolution().regularity() + 3)]

    def draw(k):
        return hyperplane_section(I, degree, hvals, seed=mix_seed(seed, k, 101))[0]

    first, second = draw(0), draw(1)
    if first == second:
        return first
    third = draw(2)
    if third in (first, second):
        return third
    raise InternalCheckError("hyperplane section values failed to stabilize over three draws")


def planar_subcurve_check(I: Ideal, plane_forms, degree: int) -> bool:
    """True when the curve, of the given degree, meets the given plane in a
    one-dimensional scheme of degree one less."""
    ring = I.ring
    forms = list(plane_forms)
    if len(forms) != ring.n - 2:
        raise ValueError(f"a plane in P^{ring.n} needs {ring.n - 2} linear forms")
    rows = []
    for f in forms:
        if f.degree() != 1:
            raise ValueError("plane forms must be linear")
        rows.append([f.coefficient(ring.var_mono(i)) for i in range(ring.nvars)])
    if fraction_rank(rows, getattr(ring.field, "p", 0)) < len(forms):
        raise ValueError("dependent plane forms")
    # saturating I + (forms) would not change its Hilbert polynomial
    J = Ideal(ring, list(I.gens) + forms)
    try:
        section_degree, _ = detect_hilbert_polynomial(J)
    except NotACurveError:
        return False
    return section_degree == degree - 1


# ---------------------------------------------------------------------------
# the extremality verdict


class CurveAnalysis:
    """The invariants of one saturated curve ideal over the rationals, each
    computed once, on first read.

    The constructor checks the input (field, linear forms, saturation, the
    dual complex, the genus bound) and fixes the bound profile and its
    window.  An invariant reads None where the paper states nothing for the
    curve's (n, d, a): the gin and the sections need d >= 3, the Betti table
    and the planar subcurve d >= 5 or d = 4 with a >= 1, and the expected
    Rao data d >= 3 outside d = 3, a > 0, n >= 4."""

    def __init__(self, I: Ideal, seed: int = 0):
        ring = I.ring
        if getattr(ring.field, "p", 0):
            raise ValueError("verdicts are computed over the rationals")
        if I.dim_piece(1) != 0:
            raise DegenerateCurveError("the ideal contains a linear form")
        if not is_saturated(I):
            raise ValueError("the ideal is not saturated")
        d, g = detect_hilbert_polynomial(I)
        # the genus bound holds for locally Cohen-Macaulay curves, which the
        # dual complex checks first
        self.dual = DualCohomology(I)
        if g > max_genus(ring.n, d):
            raise InternalCheckError("genus exceeds the proven bound")
        self.ideal = I
        self.seed = seed
        self.spec = CurveSpec(ring.n, d, g)
        self.profile = bound_profile(ring.n, d, g)
        self.window = self.profile.window
        self.degrees = range(self.window[0], self.window[1] + 1)
        self.section_seed = mix_seed(seed, 9) if d >= 3 else None

    def _betti_range(self):
        """Where the closed-form Betti table and the planar subcurve are stated."""
        return self.spec.d >= 5 or (self.spec.d == 4 and self.spec.a >= 1)

    @cached_property
    def hilbert(self) -> HilbertTable:
        return hilbert_table(self.ideal, self.window, self.spec.d, self.spec.g)

    @cached_property
    def rao_dims(self) -> dict:
        """The Rao dimensions over the window widened by 2: the one table
        that h1 and the Rao module read."""
        lo, hi = self.window
        return self.dual.rao_dims(lo - 2, hi + 2)

    @cached_property
    def rao(self) -> FiniteLengthModule:
        return deficiency_module(self.dual, self.rao_dims)

    @cached_property
    def h1(self) -> list:
        """h1 over the window, checked against the proven bound."""
        h1 = [self.rao_dims[j] for j in self.degrees]
        for j, got, bound in zip(self.degrees, h1, self.profile.h1):
            if got > bound:
                raise InternalCheckError(
                    f"h1 exceeds the proven bound at degree {j}: {got} > {bound}"
                )
        return h1

    @cached_property
    def h2(self) -> list:
        """h2 over the window, with Riemann-Roch checked at every degree."""
        return h2_table(self.dual, self.hilbert, self.h1)

    @cached_property
    def rao_expected(self):
        """(Rao dimensions over the window, annihilator degrees) as the
        paper states them; each dimension is asserted against the h1 bound."""
        if self.spec.d < 3 or rao_structure_excluded(self.spec):
            return None
        dims = [expected_rao_hf(self.spec, j) for j in self.degrees]
        return dims, expected_annihilator_degrees(self.spec)

    @cached_property
    def extremal(self) -> bool:
        """The verdict: h1 equals its bound over the whole window.  Like the
        full report, it stands only once the Hilbert table, the Rao module,
        h2 and the expected Rao data are computed and their checks pass."""
        for invariant in ("hilbert", "rao", "h1", "h2", "rao_expected"):
            getattr(self, invariant)
        return self.h1 == list(self.profile.h1)

    @cached_property
    def gin(self):
        if self.spec.d < 3:
            return None
        return compute_gin(self.ideal, seed=mix_seed(self.seed, 5))

    @cached_property
    def section_values(self):
        """Hilbert values of the general hyperplane section in degrees 1 to d + 1."""
        if self.section_seed is None:
            return None
        d = self.spec.d
        return general_section_values(self.ideal, d, seed=self.section_seed)[1 : d + 2]

    @cached_property
    def betti(self):
        return self.ideal.resolution().betti_table() if self._betti_range() else None

    @cached_property
    def planar(self):
        """Whether the plane x3 = ... = xn meets the curve in a subcurve of
        degree d - 1."""
        if not self._betti_range():
            return None
        ring = self.ideal.ring
        return planar_subcurve_check(
            self.ideal, [ring.gen(i) for i in range(3, ring.nvars)], self.spec.d
        )


def _formatted(monomial_ideal):
    return None if monomial_ideal is None else [format_mono(m) for m in monomial_ideal.gens]


def verify_extremal(I: Ideal, seed: int = 0) -> CurveReport:
    """Full computed-versus-expected report for a saturated curve ideal."""
    c = CurveAnalysis(I, seed)
    spec, extremal, rao = c.spec, c.extremal, c.rao
    n, d, a = spec.n, spec.d, spec.a
    warnings = []
    if d == 2:
        warnings.append("degree 2: the h2 bound is undefined for j < 0 and unchecked there")
    h1_matches = [x == y for x, y in zip(c.h1, c.profile.h1)]

    gin, gin_expected, alternate, gin_match = c.gin, None, None, None
    if gin is not None:
        gin_expected = expected_gin(spec)
        if d == 3 and a >= 1 and n >= 4:
            alternate = expected_gin(spec, "d3-alternate")
            warnings.append(
                "d=3, a>=1, n>=4: the gin is matched against the two-ideal set"
            )
        if gin.ideal == gin_expected:
            gin_match = "primary"
        elif alternate is not None and gin.ideal == alternate:
            gin_match = "alternate"
        else:
            gin_match = "mismatch"

    betti, betti_expected, betti_gin = c.betti, None, None
    if betti is not None:
        betti_expected = expected_betti(spec)
        # the gin is strongly stable: Eliahou-Kervaire gives its Betti table
        betti_gin = ek_betti(gin.ideal)
        if a == 0:
            warnings.append(
                "a=0: the closed-form top twist follows the stable-ideal formula"
            )

    rao_dims = [rao.dim(j) for j in c.degrees]
    rao_expected, ann_expected = c.rao_expected or (None, None)
    if rao_structure_excluded(spec):
        warnings.append(
            "d=3, a>0, n>=4: the Rao-module structure statement does not apply"
        )
    rao_checked = c.rao_expected is not None
    sections = c.section_values
    sections_expected = None if sections is None else [min(j + 2, d) for j in range(1, d + 2)]

    return CurveReport(
        n=n,
        d=d,
        g=spec.g,
        a=a,
        window=c.window,
        hilbert_dims=list(c.hilbert.dims),
        regularity=c.hilbert.regularity,
        h1=c.h1,
        h1_expected=list(c.profile.h1),
        h1_matches=h1_matches,
        first_h1_failure=next((j for j, ok in zip(c.degrees, h1_matches) if not ok), None),
        h2=c.h2,
        h2_expected=list(c.profile.h2),
        h2_checked=extremal and d >= 3,
        # the degree-2 bound is undefined (None) for j < 0
        h2_match=all(x == y for x, y in zip(c.h2, c.profile.h2) if y is not None) if extremal else None,
        gin_checked=gin is not None,
        gin_monomials=_formatted(gin and gin.ideal),
        gin_expected=_formatted(gin_expected),
        gin_alternate=_formatted(alternate),
        gin_match=gin_match,
        gin_seeds=gin and gin.seeds,
        gin_entry_bound=gin and gin.entry_bound,
        betti_checked=betti is not None,
        betti=betti,
        betti_expected=betti_expected,
        betti_gin=betti_gin,
        betti_match=None if betti is None else betti == betti_expected,
        betti_gin_match=None if betti is None else betti == betti_gin,
        rao_dims=rao_dims,
        rao_expected=rao_expected,
        rao_match=rao_expected == rao_dims if rao_checked else None,
        rao_generator_count=rao.generator_count,
        rao_generator_degrees=rao.generator_degrees,
        rao_cyclic=rao.generator_count <= 1,
        annihilator_degrees=rao.annihilator_degrees,
        annihilator_expected=ann_expected,
        annihilator_match=rao.annihilator_degrees == ann_expected if rao_checked else None,
        section_values=sections,
        section_expected=sections_expected,
        section_match=None if sections is None else sections == sections_expected,
        section_seed=c.section_seed,
        planar_checked=c.planar is not None,
        planar_verdict=c.planar,
        verdict="extremal" if extremal else "not_extremal",
        seed=seed,
        warnings=warnings,
    )


def constructed_curve_probe(I: Ideal):
    """Light analysis for randomized construction outputs: the input checks
    of `CurveAnalysis`, h1 against the bound and the numerical type."""
    c = CurveAnalysis(I)
    return {
        "n": c.spec.n,
        "d": c.spec.d,
        "g": c.spec.g,
        "window": c.window,
        "h1": c.h1,
        "h1_bound": list(c.profile.h1),
        "nondegenerate": I.dim_piece(1) == 0,
    }
