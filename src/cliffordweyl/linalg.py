"""Exact linear algebra over Gaussian rationals.

One immutable matrix type, whose entries are Scalars or elements of one
algebra (representation images, matrix realizations), and a sparse
reduced-row-echelon solver used by the centralizer probes and the
linear-independence checks.  `Matrix` is a `SparseElement`: its terms map
(row, column) to the nonzero entries over the space (rows, columns, zero
entry), so sums, negation, immutability and pickling are the sparse
core's, and its operations read only the stored entries.  Everything is
exact; there is no floating point anywhere in this package.
"""

from __future__ import annotations

from .algebra import AlgebraError
from .scalars import GR_ONE, S_ONE, S_ZERO, Scalar, _coerce_scalar
from .sparse import SparseElement, accumulate, element_tag


class MatrixError(AlgebraError, ValueError):
    """A matrix of the wrong shape, or entries from more than one ring."""


def _entry(x):
    s = _coerce_scalar(x)
    return x if s is NotImplemented else s


def _ring(x):
    """The ring of a matrix entry: the tag of its algebra, Scalar's included."""
    try:
        return element_tag(x)
    except AlgebraError:
        raise MatrixError("matrix entries must be scalars or algebra elements, got %r" % (x,)) from None


class Matrix(SparseElement):
    """Immutable rectangular matrix over Scalars or over one algebra.

    Plain numbers become Scalars.  The terms map (i, j) to the nonzero
    entries, and the space is (rows, columns, the zero of the entry ring);
    a matrix without rows has no columns either.  Equality and hashing
    read the shape and the entries, not the entry ring, so zero matrices
    of one shape are equal over every ring.  `rows` is a dense read-only
    view, built when read.  Products use the entries' own `*`, so a matrix
    over an algebra multiplies with that algebra's product; a number or an
    element that is not a Matrix scales every entry.
    """

    __slots__ = ()

    def __init__(self, rows):
        rr = [[_entry(x) for x in r] for r in rows]
        if rr and any(len(r) != len(rr[0]) for r in rr):
            raise MatrixError("ragged matrix")
        rings = {_ring(x) for r in rr for x in r}
        if len(rings) > 1:
            raise MatrixError("mixed entry rings: %r" % (rings,))
        zero = rr[0][0] * 0 if rings else S_ZERO
        terms = {(i, j): x for i, r in enumerate(rr) for j, x in enumerate(r)}
        super().__init__((len(rr), len(rr[0]) if rr else 0, zero), terms)

    # the sparse core's coercion, not the module's `_ring`: the constructors
    # check each entry, and a scale factor reaches the entries' own `*` as
    # it is, since an ore entry takes no Scalar
    _ring = staticmethod(lambda x: x)
    _check_key = staticmethod(lambda space, key: key)

    @staticmethod
    def from_entries(shape, entries, zero=S_ZERO):
        """The matrix of this shape with entries {(i, j): x}, zero elsewhere."""
        (nrows, ncols), zero = shape, _entry(zero)
        ring, terms = _ring(zero), {}
        for (i, j), x in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise MatrixError("entry (%d, %d) outside shape %s" % (i, j, shape))
            x = _entry(x)
            if _ring(x) != ring:
                raise MatrixError("mixed entry rings: %r" % ({ring, _ring(x)},))
            if x:
                terms[i, j] = x
        return Matrix.raw((nrows, ncols if nrows else 0, zero), terms)

    @staticmethod
    def identity(n, one=S_ONE):
        return Matrix.from_entries((n, n), {(i, i): one for i in range(n)}, one * 0)

    @property
    def shape(self):
        return self.space[:2]

    @property
    def rows(self):
        """The entries as a tuple of row tuples, zeros included."""
        (nrows, ncols, z), t = self.space, self.terms
        return tuple(tuple(t.get((i, j), z) for j in range(ncols)) for i in range(nrows))

    def items(self):
        """The nonzero entries as ((i, j), entry), row by row."""
        return sorted(self.terms.items(), key=lambda item: item[0][0])

    def __getitem__(self, rc):
        (i, j), (nrows, ncols, z) = rc, self.space
        if not (-nrows <= i < nrows and -ncols <= j < ncols):
            raise IndexError("matrix index out of range")
        return self.terms.get((i % nrows, j % ncols), z)

    def _check_space(self, other, inner=False):
        """Shapes that add, or with inner=True multiply, over one entry ring."""
        (r1, c1, z1), (r2, c2, z2) = self.space, other.space
        if c1 != r2 if inner else (r1, c1) != (r2, c2):
            raise MatrixError("shape mismatch %s %s %s" % (self.shape, "x" if inner else "+", other.shape))
        if c1 and c2 and _ring(z1) != _ring(z2):
            raise MatrixError("entry rings differ")

    def scale(self, s):
        (nrows, ncols, z), terms = self.space, {}
        for ij, x in self.terms.items():
            accumulate(terms, ij, x * s)
        return Matrix.raw((nrows, ncols, z * s), terms)

    def _product(self, other):
        self._check_space(other, inner=True)
        # row by row (Gustavson): row i sums a * (row k of other) over its
        # stored (k, a), with other's stored entries grouped by row once
        brows = {}
        for (k, j), b in other.terms.items():
            brows.setdefault(k, []).append((j, b))
        out = {}
        for (i, k), a in self.terms.items():
            for j, b in brows.get(k, ()):
                accumulate(out, (i, j), a * b)
        nrows = self.space[0]
        return Matrix.raw((nrows, other.space[1] if nrows else 0, self.space[2]), out)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.shape == other.shape and self.terms == other.terms

    def __hash__(self):
        return hash((self.shape, frozenset(self.terms.items())))

    def __repr__(self):
        return "Matrix([%s])" % ", ".join(
            "[%s]" % ", ".join(str(x) for x in r) for r in self.rows
        )

    def to_json(self):
        return [[x.to_json() for x in r] for r in self.rows]

    @staticmethod
    def from_json(data):
        """Inverse of to_json for a matrix of Scalars."""
        return Matrix([[Scalar.from_json(x) for x in r] for r in data])


# -- sparse exact elimination --------------------------------------------------


def reduce_row(pivots, row):
    """The residue of row {column: GaussianRational} after eliminating the
    pivot columns of pivots (as built by add_row); a new dict without zeros."""
    r = {c: v for c, v in row.items() if v}
    # Pivot rows hold only non-pivot columns, so one pass over a snapshot of
    # r's keys is complete.
    for c in list(r):
        if c in pivots:
            f = -r.pop(c)
            for cc, v in pivots[c].items():
                accumulate(r, cc, f * v)
    return r


def add_row(pivots, row):
    """Add one equation to the reduced echelon form pivots, in place.

    Returns False, and leaves pivots alone, when row is dependent on it.
    Otherwise the residue's smallest column becomes a new pivot and the
    existing pivot rows are reduced against it.
    """
    r = reduce_row(pivots, row)
    if not r:
        return False
    c = min(r)
    inv = r.pop(c).inverse()
    r = {cc: v * inv for cc, v in r.items()}
    for pr in pivots.values():
        if c in pr:
            f = -pr.pop(c)
            for cc, v in r.items():
                accumulate(pr, cc, f * v)
    pivots[c] = r
    return True


def sparse_rref(rows):
    """Reduced row echelon form of sparse homogeneous equations.

    rows: iterable of {column_key: GaussianRational}.  Column keys only need
    to be orderable and hashable.  Returns {pivot_column: normalized_row}
    where each normalized row maps non-pivot columns to coefficients and the
    implicit pivot coefficient is 1.
    """
    pivots = {}
    for raw in rows:
        add_row(pivots, raw)
    return pivots


def sparse_rank(rows):
    return len(sparse_rref(rows))


def sparse_nullspace(rows, variables):
    """Basis of the solution space of the homogeneous sparse system.

    variables: ordered list of all column keys (free variables not mentioned
    in any equation are genuinely free).  Returns a list of solution vectors,
    each {variable: GaussianRational}, one per free variable, with that free
    variable set to 1.  Deterministic given input order.
    """
    pivots = sparse_rref(rows)
    free = [v for v in variables if v not in pivots]
    basis = []
    for f in free:
        vec = {f: GR_ONE}
        for pc, pr in pivots.items():
            coef = pr.get(f)
            if coef:
                vec[pc] = -coef
        basis.append(vec)
    return basis
