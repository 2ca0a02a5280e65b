"""Reference algorithms and views that the package does not run, kept for
the tests that compare the package against them or read through them:
Euclid's gcd of binary forms in the ring's field, the kernel of the line
construction as a graph Gröbner basis in all n+1 variables, the
minimalization of the Schreyer frame in field arithmetic (`Fraction`s over
QQ), coordinate changes of ideals, resolution maps as `Polynomial`s, the
row-reduced graded piece of an ideal, the revlex comparison of exponent
tuples, the Hochster Betti oracle for monomial ideals, and the
commutation check of a Rao module's multiplication maps."""

from fractions import Fraction
from itertools import combinations, product

from extremalcurves.construct import _is_binary, binary_coeff_vector
from extremalcurves.groebner import _divide
from extremalcurves.ideals import Ideal
from extremalcurves.modules import GraphBasis, ResolutionData, _schreyer_frame, packed_vector, polynomial_vector
from extremalcurves.monomials import BettiTable
from extremalcurves.oracle import GradedSpan, _check_degree, _poly_rows, fraction_rank
from extremalcurves.packing import make_packer, make_unpacker
from extremalcurves.ring import PolyRing, Polynomial, _addmul, mono_degree, mono_divides, revlex_key


def _uni_gcd(a, b, fld):
    """Monic gcd of univariate coefficient lists (ascending powers) over the
    field `fld`."""

    def strip(v):
        v = list(v)
        while v and not v[-1]:
            v.pop()
        return v

    a, b = strip(a), strip(b)
    while b:
        # a mod b
        r = list(a)
        while len(r) >= len(b) and any(r):
            if not r[-1]:
                r.pop()
                continue
            f = fld.div(r[-1], b[-1])
            off = len(r) - len(b)
            for i, c in enumerate(b):
                r[off + i] = fld.add(r[off + i], fld.neg(fld.mul(f, c)))
            r.pop()
        a, b = b, strip(r)
    if a:
        lead = a[-1]
        a = [fld.div(c, lead) for c in a]
    return a


def binary_gcd(forms):
    """Gcd of homogeneous binary forms (monic in x0); 1 for coprime input."""
    forms = [p for p in forms if p]
    if not forms:
        raise ValueError("gcd of zero forms")
    ring = forms[0].ring
    x1_power = None
    uni = None
    for p in forms:
        if not _is_binary(p) or not p.is_homogeneous():
            raise ValueError("binary homogeneous forms required")
        deg = p.degree()
        vec = binary_coeff_vector(p, deg)
        # strip the trailing x1 part: v1 = deg - top x0 power
        top = max(i for i, c in enumerate(vec) if c)
        v1 = deg - top
        x1_power = v1 if x1_power is None else min(x1_power, v1)
        uni = vec if uni is None else _uni_gcd(uni, vec, ring.field)
    gdeg = max((i for i, c in enumerate(uni) if c), default=0)
    terms = []
    for e, c in enumerate(uni):
        if c:
            m = [0] * ring.nvars
            m[0] = e
            m[1] = gdeg - e + x1_power
            terms.append((tuple(m), c))
    return Polynomial(ring, terms)


def graph_kernel_ideal(inp) -> Ideal:
    """The glued curve's ideal as the projection of the syzygies of the
    nonzero values and the line's ideal (x2, ..., xn), computed by one graph
    basis in all n+1 variables, plus u_0 = x2^(d-1) when f = 0."""
    inp.validate()
    n, d = inp.n, inp.d
    ring = inp.f_list[0].ring
    x = ring.gens()
    planar_gens = [x[2] ** (d - 1)] + [x[i] for i in range(3, n + 1)]
    values = [inp.f] + list(inp.f_list)
    live = [t for t, p in enumerate(values) if p]
    cols = [packed_vector(ring, [p]) for p in [values[t] for t in live] + x[2:]]
    pack, unpack, fld = make_packer(ring.nvars), make_unpacker(ring.nvars), ring.field
    shifts = [pack(planar_gens[t].lead_monomial) for t in live]
    gens = []
    for vec in GraphBasis(cols, [0], ring).kernel_generators():
        acc = {}
        for s, entry in vec.items():
            if s < len(live):  # the relations' components drop out
                for k, c in entry.items():
                    acc[k + shifts[s]] = fld.add(acc.get(k + shifts[s], fld.zero), c)
        terms = [(unpack(k), acc[k]) for k in sorted(acc) if acc[k]]
        if terms:
            gens.append(Polynomial.from_sorted(ring, terms))
    if not inp.f:
        gens.append(planar_gens[0])
    return Ideal.minimal(ring, gens)


def field_packed_columns(elements, bits, decode, modulus):
    """Monic packed columns of Schreyer-keyed elements: the term at key
    (image << bits) | rank lands in row t at image minus the lead image of
    t, where decode[rank] = (t, lead image)."""
    mask = (1 << bits) - 1
    cols = []
    for e in elements:
        col = {}
        for k, c in zip(e.keys, _divide(e.coeffs, e.coeffs[0], modulus)):
            t, img = decode[k & mask]
            col.setdefault(t, {})[(k >> bits) - img] = c
        cols.append(col)
    return cols


def field_minimalize(twists, cols, modulus):
    """Cancel unit entries level by level from the back, in the field.

    At each level the first column holding a unit, at its lowest unit row,
    is the pivot: every other column is cleared at that row, and the pivot
    row and column split off as a trivial summand."""
    live = [[True] * len(t) for t in twists]
    for k in range(len(cols) - 1, -1, -1):
        rows, tops, level = twists[k], twists[k + 1], cols[k]
        for j, pivot in enumerate(level):
            if not live[k + 1][j]:
                continue
            i = min((r for r in pivot if rows[r] == tops[j]), default=None)
            if i is None:
                continue
            inv = _divide([-1], pivot[i][0], modulus)[0]
            for jp, col in enumerate(level):
                q = col.pop(i, None) if jp != j and live[k + 1][jp] else None
                if q:
                    factor = {key: c * inv for key, c in q.items()}
                    for r, e in pivot.items():
                        if r != i and not _addmul(col.setdefault(r, {}), factor, e, modulus):
                            del col[r]
            live[k + 1][j] = live[k][i] = False
    index = [{old: new for new, old in enumerate(o for o, a in enumerate(lv) if a)} for lv in live]
    twists = [tuple(w for w, a in zip(t, lv) if a) for t, lv in zip(twists, live)]
    cols = [
        [{index[k][r]: e for r, e in col.items() if r in index[k]} for col, a in zip(level, live[k + 1]) if a]
        for k, level in enumerate(cols)
    ]
    while cols and not cols[-1]:
        cols.pop()
        twists.pop()
    return twists, cols


def field_resolution(gb) -> ResolutionData:
    """`modules.free_resolution_from_gb` with the frame's columns made
    monic in the field and minimalized there."""
    ring = gb.ring
    if not gb.polys:
        return ResolutionData(ring, [(0,)], [])
    modulus = getattr(ring.field, "p", 0)
    levels = _schreyer_frame(gb)
    twists = [(0,)] + [tuple(e.deg for e in elements) for elements, _, _ in levels]
    cols = [field_packed_columns(*level, modulus) for level in levels]
    return ResolutionData(ring, *field_minimalize(twists, cols, modulus))


def slot_lcm(a, b, nvars, slot=8):
    """Componentwise max of packed monomials, one slot at a time."""
    mask = (1 << slot) - 1
    return sum(max((a >> (slot * i)) & mask, (b >> (slot * i)) & mask) << (slot * i) for i in range(nvars))


def slot_degree(key, nvars, slot=8):
    """Sum of the slots of a packed monomial, one slot at a time."""
    mask = (1 << slot) - 1
    return sum((key >> (slot * i)) & mask for i in range(nvars))


def tuple_minimal_generators(gens):
    """Minimal generators of a monomial ideal by tuple divisibility, in
    descending revlex."""
    mins = []
    for m in sorted(set(map(tuple, gens)), key=lambda m: (sum(m), m)):
        if not any(mono_divides(g, m) for g in mins):
            mins = [g for g in mins if not mono_divides(m, g)]
            mins.append(m)
    return tuple(sorted(mins, key=revlex_key, reverse=True))


def compare_revlex(m1, m2) -> int:
    """Degree-refined reverse lexicographic comparison.

    Returns 1 when m1 > m2, -1 when m1 < m2, 0 on equality.  m1 > m2 when
    the last non-zero coordinate of the vector
    (a_0-b_0, ..., a_n-b_n, sum(b)-sum(a)) is negative; the appended degree
    slot makes higher total degree larger.
    """
    if len(m1) != len(m2):
        raise ValueError("monomials from different rings")
    d = mono_degree(m2) - mono_degree(m1)
    if d:
        return 1 if d < 0 else -1
    for a, b in zip(reversed(m1), reversed(m2)):
        if a != b:
            return 1 if a < b else -1
    return 0


def change_coordinates(I: Ideal, matrix) -> Ideal:
    """Substitute x_i -> sum_j matrix[i][j] x_j in every generator.  The
    matrix must be invertible over the ring's field: the images of the
    variables span the linear forms."""
    ring = I.ring
    if len(matrix) != ring.nvars or any(len(r) != ring.nvars for r in matrix):
        raise ValueError("matrix size does not match the ring")
    if fraction_rank(matrix, getattr(ring.field, "p", 0)) < ring.nvars:
        raise ValueError("singular coordinate change")
    return Ideal(ring, [g.substitute_linear(matrix) for g in I.gens])


def mats(res: ResolutionData):
    """The maps of a resolution as Polynomials: mats(res)[k][j][i] is the
    entry of column j of the k-th map at row i."""
    return tuple(
        tuple(tuple(polynomial_vector(res.ring, col, len(res.twists[k]))) for col in level)
        for k, level in enumerate(res.cols)
    )


class GradedPieceMatrix:
    """Matrix whose rows are all generator*monomial products in one degree."""

    def __init__(self, ring, rows, monomials, rank):
        self.ring = ring
        self.rows = rows  # list of dicts: packed key -> int
        self.monomials = monomials  # revlex-descending column labels
        self.rank = rank

    @property
    def shape(self):
        return (len(self.rows), len(self.monomials))


def graded_piece_basis(gens, j: int, ring: PolyRing | None = None) -> GradedPieceMatrix:
    """All products generator x monomial landing in degree j, row reduced.

    The row space equals the degree-j piece of the ideal; the rank is its
    dimension.  Empty matrix when j lies below every generator.
    """
    if ring is None:
        ring = gens[0].ring
    _check_degree(j)
    pack = make_packer(ring.nvars)
    rows = []
    for d, row in _poly_rows([g for g in gens if g]):
        if d > j:
            continue
        for m in ring.monomials_of_degree(j - d):
            shift = pack(m)
            rows.append({k + shift: v for k, v in row.items()})
    span = GradedSpan(ring, [])
    span.degree = j
    rank = 0
    for row in rows:
        if span._insert(dict(row)):
            rank += 1
    return GradedPieceMatrix(ring, rows, ring.monomials_of_degree(j), rank)


def join(I):
    """Componentwise max of the generators of a monomial ideal (their lcm)."""
    out = [0] * I.nvars
    for g in I.gens:
        out = [max(a, b) for a, b in zip(out, g)]
    return tuple(out)


def _reduced_homology_dims(faces):
    """Reduced homology dimensions of a simplicial complex over Q.

    ``faces`` is the set of frozensets (including frozenset() when the
    empty face is present).  Returns dict dim -> rank, with dim -1 for the
    sphere of the empty complex convention.
    """
    if not faces:
        return {}
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(sorted(f))
    for fs in by_dim.values():
        fs.sort()
    top = max(by_dim)
    index = {d: {tuple(f): k for k, f in enumerate(fs)} for d, fs in by_dim.items()}

    def boundary_rank(d):
        # rank of d-th boundary map C_d -> C_{d-1}
        if d <= -1 or d not in by_dim or (d - 1) not in by_dim:
            return 0
        rows = []
        lower = index[d - 1]
        for f in by_dim[d]:
            vec = [0] * len(lower)
            for k in range(len(f)):
                face = tuple(f[:k] + f[k + 1 :])
                vec[lower[face]] = (-1) ** k
            rows.append(vec)
        return fraction_rank(rows)

    ranks = {d: boundary_rank(d) for d in range(0, top + 1)}
    out = {}
    for d in range(-1, top + 1):
        dim_c = len(by_dim.get(d, []))
        h = dim_c - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if h:
            out[d] = h
    return out


def hochster_betti_oracle(I) -> BettiTable:
    """Betti numbers of any monomial ideal via upper Koszul complexes.

    For each exponent vector b below the join of the generators,
    beta_{i,b}(I) is the reduced homology in dimension i-1 of
    {S subset supp(b) : x^b / prod_{s in S} x_s in I}; summing over |b| = j
    gives beta_{i,j}.
    """
    table = BettiTable()
    if not I.gens:
        return table
    for b in product(*[range(e + 1) for e in join(I)]):
        if not I.contains(b):
            continue
        supp = [i for i, e in enumerate(b) if e]
        faces = set()
        for r in range(len(supp) + 1):
            for S in combinations(supp, r):
                quotient = tuple(e - 1 if i in S else e for i, e in enumerate(b))
                if I.contains(quotient):
                    faces.add(frozenset(S))
        deg = sum(b)
        for hdim, rank in _reduced_homology_dims(faces).items():
            table.add(hdim + 1, deg, rank)
    return table


def _mat_mul(A, B):
    if not A or not B:
        return []
    return [
        [sum((a * B[k][c] for k, a in enumerate(row)), Fraction(0)) for c in range(len(B[0]))]
        for row in A
    ]


def multiplication_commutes(module) -> bool:
    """Whether x_w x_v = x_v x_w on every degree of a `FiniteLengthModule`."""
    degrees = sorted(module.dims)
    nv = max((v for v, _ in module.mult), default=-1) + 1
    for j in degrees:
        for v in range(nv):
            for w in range(v + 1, nv):
                a = _mat_mul(module.mult[(w, j + 1)], module.mult[(v, j)])
                b = _mat_mul(module.mult[(v, j + 1)], module.mult[(w, j)])
                if a != b:
                    return False
    return True
