"""Curve invariants from a saturated ideal: Hilbert data, the deficiency
(Hartshorne-Rao) module, second cohomology, hyperplane sections, planar
subcurves, and the extremality verdict; `report` lays them out.

Cohomology is extracted by graded duality on the minimal free resolution:
the deficiency module is the cokernel of the transposed last map, second
cohomology the middle homology of the dual complex: the twists' alternating
Hilbert sum (the dual complex is exact below codimension n - 1) less one
presented quotient of its middle term, the coimage of the last dual map;
a presented module's Hilbert function is read off its Hilbert series.
Everything cross-asserts against the Riemann-Roch identity
h_C(j) - p_C(j) = -h1(j) + h2(j).
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import accumulate

from .formulas import (
    CurveSpec,
    bound_profile,
    expected_annihilator_degrees,
    expected_rao_hf,
    max_genus,
    rao_structure_excluded,
)
from .gin import gin as compute_gin, mix_seed
from .groebner import cut_leads
from .ideals import Ideal, is_saturated, random_unipotent_matrix
from .modules import GraphBasis, InternalCheckError, PresentedModule
from .monomials import MonomialIdeal, _trim, series_values
from .oracle import fraction_rank
from .report import CurveReport
from .ring import FrozenRecord, Record, _addmul


class NotACurveError(ValueError):
    """The ideal does not define a one-dimensional scheme."""


class DegenerateCurveError(ValueError):
    """The ideal contains a linear form."""


class NotLocallyCohenMacaulayError(ValueError):
    """The curve has embedded or isolated points: its deficiency module is
    not of finite length."""


# ---------------------------------------------------------------------------
# Hilbert data


class HilbertTable(FrozenRecord):
    _fields = ("window", "dims", "degree", "genus", "regularity")

    def __init__(self, window: tuple, dims: tuple, degree: int, genus: int, regularity: int):
        self.__dict__.update(window=window, dims=dims, degree=degree, genus=genus, regularity=regularity)

    def at(self, j):
        lo, hi = self.window
        if not lo <= j <= hi:
            raise IndexError(f"degree {j} outside the window")
        return self.dims[j - lo]

    def polynomial_value(self, j):
        return self.degree * j - self.genus + 1


def detect_hilbert_polynomial(lead: MonomialIdeal):
    """(degree, arithmetic genus) of a curve, whose Hilbert polynomial is
    d j + 1 - g, read off the Hilbert numerator of its initial ideal lead.
    With N(t) = (1-t)^k Q(t) and Q(1) != 0 the quotient has dimension
    nvars - k; for dimension two d = Q(1) and g = 1 - Q(1) + Q'(1).  Any
    other dimension, the unit ideal included, raises NotACurveError."""
    q = list(lead.hilbert_numerator())
    k = 0
    while any(q) and sum(q) == 0:  # divide by (1 - t): a running sum
        q = list(accumulate(q))[:-1]
        k += 1
    if not any(q) or lead.nvars - k != 2:
        raise NotACurveError(
            "the quotient does not have dimension two: the ideal does not define a curve"
        )
    return sum(q), 1 - sum(q) + sum(i * c for i, c in enumerate(q))


def hilbert_table(I: Ideal, window, degree: int, genus: int) -> HilbertTable:
    """Hilbert function of the quotient over a window, with the curve's
    degree and genus (from `detect_hilbert_polynomial`)."""
    lo, hi = window
    lead = I.initial_ideal()
    dims = tuple(series_values(enumerate(lead.hilbert_numerator()), lead.nvars, lo, hi))
    return HilbertTable(
        window=(lo, hi),
        dims=dims,
        degree=degree,
        genus=genus,
        regularity=I.resolution().regularity(),
    )


# ---------------------------------------------------------------------------
# duality


class DualCohomology:
    """Ext modules at the last two homological positions of R/I, from the
    resolution's twists and dual rows (`ResolutionData.dual`); the second
    cohomology side is built lazily since many callers only need h1.

    With the dual complex F*_{n-2} -a-> F*_{n-1} -b-> F*_n and im a inside
    ker b, h2(j) is dim (F*_{n-1}/im a)_e - dim (F*_{n-1}/ker b)_e at
    e = -j - nvars (b = 0 for an ACM curve).  The first term needs no
    Gröbner basis: a curve ideal has height, so grade, n - 1, hence
    Ext^i(R/I, R) = 0 for i < n - 1 (Bruns-Herzog, Thm 1.2.5 and Cor.
    2.1.4; Eisenbud, Commutative Algebra, Prop. 18.4), so
    0 -> F*_0 -> ... -> F*_{n-2} -> im a -> 0 is exact and
    dim (F*_{n-1}/im a)_e = sum_{i<n} (-1)^(n-1-i) sum_{w in twists[i]}
    C(e + w + n, n).  The twists are certified on construction: their
    alternating sum sum_i (-1)^i sum_w t^w is the Hilbert numerator of
    in(I)."""

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
        euler = [0] * (1 + max(max(t, default=0) for t in res.twists))
        for i, level in enumerate(res.twists):
            for w in level:
                euler[w] += (-1) ** i
        if tuple(_trim(euler)) != I.initial_ideal().hilbert_numerator():
            raise InternalCheckError("the resolution's twists miss the Hilbert numerator of in(I)")
        self.res = res
        self.acm = res.length == n - 1
        # the numerator of F*_{n-1}/im a, by the alternating sum above
        self._coker_a = [(-w, (-1) ** (n - 1 - i)) for i in range(n) for w in res.twists[i]]
        if self.acm:
            self.rao_dual = PresentedModule(self.ring, [], [])
        else:
            # coker(Hom(F_{n-1}, R) -> Hom(F_n, R))
            self.rao_dual = PresentedModule(self.ring, [-w for w in res.twists[n]], res.dual(n - 1))
            if not self.rao_dual.is_finite_length():
                raise NotLocallyCohenMacaulayError(
                    "the curve is not locally Cohen-Macaulay (it has embedded "
                    "or isolated points): its deficiency module is not of finite length"
                )

    @cached_property
    def coimage_b(self):
        """F*_{n-1}/ker b, read off the graph basis of b, whose kernel part
        is a Gröbner basis already; the zero module for an ACM curve.  The
        complex is checked first on the dual rows themselves, with no normal
        form: b(a(e_r)) = sum_t a_rt b_t must vanish for every row r of a,
        so the check trusts no Gröbner run."""
        res, ring, n = self.res, self.ring, self.ring.n
        if self.acm:
            return PresentedModule(ring, [], [])
        b = res.dual(n - 1)
        for row in res.dual(n - 2):
            image = {}
            for t, entry in row.items():
                for s, e in b[t].items():
                    _addmul(image.setdefault(s, {}), entry, e, ring.modulus)
            if any(image.values()):
                raise InternalCheckError("dual complex image missed the kernel")
        return GraphBasis(b, [-w for w in res.twists[n]], ring)

    def _dual_window(self, terms, lo: int, hi: int) -> list:
        """Values in degrees e = -j - nvars, j from lo to hi, of the series
        with the given numerator terms: one read, listed by j."""
        nvars = self.ring.nvars
        return series_values(terms, nvars, -hi - nvars, -lo - nvars)[::-1]

    def rao_dims(self, lo: int, hi: int) -> dict:
        """{j: dim M_j} for lo <= j <= hi, zeros included: M_j = H^1(I_C(j))
        is dual to the dual module's piece in degree -j - nvars."""
        return dict(zip(range(lo, hi + 1), self._dual_window(self.rao_dual.series, lo, hi)))

    def h2_values(self, lo: int, hi: int) -> list:
        """[h2(j) for lo <= j <= hi]: F*_{n-1}/im a less the coimage of b."""
        coker = self._dual_window(self._coker_a, lo, hi)
        return [x - y for x, y in zip(coker, self._dual_window(self.coimage_b.series, lo, hi))]


class FiniteLengthModule(Record):
    """Per-degree dimensions with multiplication matrices between them."""

    _fields = ("dims", "mult", "generator_count", "generator_degrees", "annihilator_degrees")

    def __init__(
        self,
        dims: dict,
        mult: dict,  # (var, j) -> x_var : M_j -> M_{j+1}, one sparse row {column: value} per target element
        generator_count: int,
        generator_degrees: list,
        annihilator_degrees: list | None,
    ):
        self.dims = dims
        self.mult = mult
        self.generator_count = generator_count
        self.generator_degrees = generator_degrees
        self.annihilator_degrees = annihilator_degrees


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
        # sparse rows have no length: the target basis is counted instead
        if live and len(dual.rao_dual.standard_basis(e_next + 1)) != dims[j]:
            raise InternalCheckError(f"the dual basis of M_{j} disagrees with the Rao dimensions")
        for v in range(nvars):
            # x_v on the dual module at degree e_next has target degree
            # e_next + 1 = -j - nvars; its sparse rows, one per source
            # element, are the rows of x_v : M_j -> M_{j+1} on the module
            # itself.  A map to or from a zero piece is the empty matrix.
            m = mult[(v, j)] = dual.rao_dual.mult_matrix(v, e_next) if live else []
            if live and len(m) != dims[j + 1]:
                raise InternalCheckError(f"multiplication by x{v} on M_{j} disagrees with the Rao dimensions")
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
        width = dims.get(t - 1)
        if width:
            rows = [
                {v * width + c: x for v in range(nvars) for c, x in mult[(v, t - 1)][r].items()}
                for r in range(dim_here)
            ]
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
        ker_dim = nvars * dim_prev - ranks.get(t, 0)
        # image of the Koszul two-form map: the column of e_v ^ e_w at a
        # basis element b of M_{t-2} is x_w b in slot v minus x_v b in slot
        # w, gathered from the nonzero entries (x_w b)_r and (x_v b)_r of the
        # rows r of M_{t-1}
        b_cols = {}
        for v in range(nvars):
            for w in range(v + 1, nvars):
                for r, (row_v, row_w) in enumerate(zip(mult[(v, t - 2)], mult[(w, t - 2)])):
                    for b, x in row_w.items():
                        b_cols.setdefault((v, w, b), {})[v * dim_prev + r] = x
                    for b, x in row_v.items():
                        b_cols.setdefault((v, w, b), {})[w * dim_prev + r] = -x
        rank_b = fraction_rank(b_cols.values())
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
    values = dual.h2_values(lo, hi)
    for j, h1, h2 in zip(range(lo, hi + 1), h1_values, values, strict=True):
        lhs = hilbert.at(j) - hilbert.polynomial_value(j)
        if lhs != -h1 + h2:
            raise InternalCheckError(
                f"Riemann-Roch identity failed at degree {j}: "
                f"{lhs} != -{h1} + {h2}"
            )
    return values


# ---------------------------------------------------------------------------
# hyperplane sections and planar subcurves


def hyperplane_section(I: Ideal, degree: int, hvals, seed: int = 0):
    """Section of a curve of the given degree, whose Hilbert values in
    degrees 0 to reg + 2 are hvals, by a drawn hyperplane: its Hilbert
    values through degree + 1, and the drawn matrix.  A verdict reads the
    values off the gin (`general_section_values`); this draw checks that
    read.  Of up to 12 seeded unit lower-triangular draws
    (`random_unipotent_matrix`) that move the hyperplane to {x_n = 0}, it
    rejects those whose cut fails the non-zerodivisor test
    h(R/(I+l))_j = h_C(j) - h_C(j-1), or has fewer than degree points at
    degree + 1 (the last variable vanishes at a section point)."""
    ring = I.ring
    last = ring.n - 1
    for attempt in range(12):
        rng = random.Random(mix_seed(seed, attempt, 77))
        matrix = random_unipotent_matrix(ring, rng, 20)
        cut_dims = cut_leads(I.gens, matrix, None, ring)
        if not cut_dims.gens:
            continue
        cut = series_values(enumerate(cut_dims.hilbert_numerator()), cut_dims.nvars, 0, len(hvals) - 1)
        if cut != [h - g for h, g in zip(hvals, [0, *hvals])]:
            continue
        lead = MonomialIdeal(ring.n, [m[:last] + (0,) for m in cut_dims.gens])
        values = series_values(enumerate(lead.hilbert_numerator()), ring.n, 0, degree + 1)
        if values[-1] != degree:  # section points on {x_last = 0}
            continue
        return values, matrix
    raise InternalCheckError("exhausted draws without a non-zerodivisor hyperplane")


def general_section_values(gin, degree: int):
    """Hilbert values in degrees 0 to degree + 1 of the general hyperplane
    section of a curve of the given degree, read off the curve's certified
    gin (a `MonomialIdeal` in n + 1 variables) with no hyperplane drawn.

    Let g be a certified draw, so G = in(g.I) is strongly stable and no
    generator of G involves x_n.  Under revlex, with x the last variable,
    in(J + (x)) = in(J) + (x) and in(J : x) = in(J) : x (Eisenbud,
    Commutative Algebra, Prop. 15.12).  Used twice, the cut of g.I by
    x_n = 0 has G with x_n = 0 as its initial ideal, and the cut's
    saturation by x_{n-1} has that ideal with the x_{n-1} exponent set to
    0.  As G has no generator in x_n, x_n is a non-zerodivisor: a drawn
    section's Hilbert test passes by itself.  As G is strongly stable,
    saturating by the last variable is the full saturation (Green, Generic
    initial ideals, 1998, §2), so the section of degree d has d points from
    degree d - 1 on: a drawn section's last-value test passes too.  The
    values depend on in(g.I) alone, so on the dense open set where
    in(g.I) = gin(I) they are the general section's: the two-draw standard
    of the gin itself.  A generator in x_n, or a last value other than the
    degree, raises InternalCheckError."""
    n = gin.nvars - 1
    if any(m[n] for m in gin.gens):
        raise InternalCheckError("a gin generator involves the last variable")
    lead = MonomialIdeal(n, [m[: n - 1] + (0,) for m in gin.gens])
    values = series_values(enumerate(lead.hilbert_numerator()), n, 0, degree + 1)
    if values[-1] != degree:
        raise InternalCheckError(f"the section read off the gin has {values[-1]} points, not {degree}")
    return values


def planar_subcurve_check(I: Ideal, degree: int) -> bool:
    """True when the curve, of the given degree, meets the plane
    x3 = ... = xn in a one-dimensional scheme of degree one less, read off
    in(I) with no Gröbner run beyond I's own.  Under revlex
    in(I + L) = in(I) + L for L = (x_k, ..., x_n): Eisenbud, Commutative
    Algebra, Prop. 15.12, applied to x_n, then to x_{n-1} modulo x_n, and
    so on.  Directly: a monomial outside L is larger than every monomial of
    its degree in L, so for h = f + l homogeneous, f in I, l in L, with
    in(h) outside L, in(h) and in(f) are both the largest term of f
    outside L."""
    lead = I.initial_ideal()
    tail = [I.ring.var_mono(i) for i in range(3, I.ring.nvars)]
    # saturating the cut would not change its Hilbert polynomial
    try:
        section_degree, _ = detect_hilbert_polynomial(MonomialIdeal(lead.nvars, list(lead.gens) + tail))
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
        if ring.modulus:
            raise ValueError("verdicts are computed over the rationals")
        if I.dim_piece(1) != 0:  # as the unit ideal does
            raise DegenerateCurveError("the ideal is the unit ideal" if I.dim_piece(0) else "the ideal contains a linear form")
        if not is_saturated(I):
            raise ValueError("the ideal is not saturated")
        d, g = detect_hilbert_polynomial(I.initial_ideal())
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
        return None if self.gin is None else general_section_values(self.gin.ideal, self.spec.d)[1:]

    @cached_property
    def betti(self):
        return self.ideal.resolution().betti_table() if self._betti_range() else None

    @cached_property
    def planar(self):
        """Whether the plane x3 = ... = xn meets the curve in a subcurve of
        degree d - 1."""
        if not self._betti_range():
            return None
        return planar_subcurve_check(self.ideal, self.spec.d)


def verify_extremal(I: Ideal, seed: int = 0) -> CurveReport:
    """Full computed-versus-expected report for a saturated curve ideal
    (`CurveReport.from_analysis`)."""
    return CurveReport.from_analysis(CurveAnalysis(I, seed))


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
