"""Property tests for the line construction over QQ and Z/7: the kernel
computed over K[x0, x1] against the graph kernel in all n+1 variables, and
the coprimality test of `ConstructionInput.validate` against Euclid's gcd
(both references in `reference.py`)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from extremalcurves.cohomology import detect_hilbert_polynomial  # noqa: E402
from extremalcurves.construct import (  # noqa: E402
    ConstructionInput,
    DegenerateInputError,
    InfiniteCokernelError,
    construct_curve,
)
from extremalcurves.formulas import max_genus  # noqa: E402
from extremalcurves.ideals import is_saturated  # noqa: E402
from extremalcurves.ring import QQ, PolyRing, Polynomial, PrimeField  # noqa: E402
from reference import binary_gcd, graph_kernel_ideal  # noqa: E402

SETTINGS = settings(max_examples=25, derandomize=True, deadline=None, database=None)
FIELDS = [QQ, PrimeField(7)]


@st.composite
def binary_forms(draw, ring, degree, nonzero=True):
    """A binary form x0^e * x1^(degree-e) with small coefficients."""
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=degree + 1, max_size=degree + 1))
    terms = [((e, degree - e) + (0,) * (ring.nvars - 2), c) for e, c in enumerate(coeffs) if c]
    p = Polynomial(ring, terms)
    if nonzero:
        assume(p)
    return p


@st.composite
def admissible_inputs(draw):
    """Inputs that pass `validate`, with n = 3..5 and f zero one time in two.
    A single line form with f = 0 is coprime only as a constant, so n = 3
    with f = 0 has a = 0."""
    n, d = draw(st.integers(3, 5)), draw(st.integers(3, 5))
    zero_f = draw(st.booleans())
    a = 0 if zero_f and n == 3 else draw(st.integers(0, 2))
    ring = PolyRing(n + 1, draw(st.sampled_from(FIELDS)))
    f_list = tuple(draw(binary_forms(ring, a + n - 3)) for _ in range(n - 2))
    f = ring.zero if zero_f else draw(binary_forms(ring, d + a + n - 5))
    inp = ConstructionInput(n=n, d=d, a=a, f_list=f_list, f=f)
    try:
        inp.validate()
    except (DegenerateInputError, InfiniteCokernelError):
        assume(False)
    return inp


@SETTINGS
@given(admissible_inputs())
def test_two_variable_kernel_is_the_graph_kernel(inp):
    I = construct_curve(inp)
    assert I.groebner() == graph_kernel_ideal(inp).groebner()
    assert is_saturated(I)
    assert detect_hilbert_polynomial(I.initial_ideal()) == (inp.d, max_genus(inp.n, inp.d) - inp.a)
    assert I.dim_piece(1) == 0


@st.composite
def line_data(draw):
    """Forms of the construction's degrees, half the time all multiplied by
    one common form of degree 1 or 2 (a common factor over QQ may split
    mod 7 only, and a coprime pair over QQ may share a factor mod 7)."""
    n, d, a = draw(st.integers(3, 5)), draw(st.integers(3, 4)), draw(st.integers(0, 2))
    ring = PolyRing(n + 1, draw(st.sampled_from(FIELDS)))
    deg_fi, deg_f = a + n - 3, d + a + n - 5
    common = draw(st.integers(0, min(2, deg_fi)))
    h = draw(binary_forms(ring, common))
    f_list = tuple(h * draw(binary_forms(ring, deg_fi - common)) for _ in range(n - 2))
    f = h * draw(binary_forms(ring, deg_f - common, nonzero=False))
    return ConstructionInput(n=n, d=d, a=a, f_list=f_list, f=f)


@SETTINGS
@given(line_data())
def test_artinian_leads_decide_coprimality_as_the_gcd_does(inp):
    shared = binary_gcd(list(inp.f_list) + [inp.f]).degree() > 0
    try:
        inp.validate()
    except DegenerateInputError:
        assume(False)
    except InfiniteCokernelError:
        assert shared
    else:
        assert not shared
