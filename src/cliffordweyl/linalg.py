"""Exact linear algebra over Gaussian rationals.

One immutable matrix type, whose entries are Scalars or elements of one
algebra (representation images, matrix realizations), and a sparse
reduced-row-echelon solver used by the centralizer probes and the
linear-independence checks.  The matrix is stored sparsely, one
{column: nonzero entry} map per row, and its operations read only the
stored entries.  Everything is exact; there is no floating point anywhere
in this package.
"""

from __future__ import annotations

from .algebra import AlgebraError
from .scalars import GR_ONE, S_ONE, S_ZERO, Scalar, _coerce_scalar
from .sparse import accumulate, element_tag


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


class Matrix:
    """Immutable rectangular matrix over Scalars or over one algebra.

    Plain numbers become Scalars.  Each row is stored as a map {column:
    nonzero entry}, beside the column count and the zero of the entry ring;
    no zero entry is ever stored, so equal matrices have equal maps.  `rows`
    is a dense read-only view, built when read.  Products use the entries'
    own `*`, so a matrix over an algebra multiplies with that algebra's
    product, and every operation reads only the stored entries.
    """

    __slots__ = ("_rows", "_ncols", "_zero")

    def __init__(self, rows):
        rr = [[_entry(x) for x in r] for r in rows]
        if rr and any(len(r) != len(rr[0]) for r in rr):
            raise MatrixError("ragged matrix")
        rings = {_ring(x) for r in rr for x in r}
        if len(rings) > 1:
            raise MatrixError("mixed entry rings: %r" % (rings,))
        zero = rr[0][0] * 0 if rings else S_ZERO
        _new(tuple({j: x for j, x in enumerate(r) if x} for r in rr), len(rr[0]) if rr else 0, zero, self)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _new, since __setattr__ refuses the slots
        return _new, (self._rows, self._ncols, self._zero)

    @staticmethod
    def from_entries(shape, entries, zero=S_ZERO):
        """The matrix of this shape with entries {(i, j): x}, zero elsewhere."""
        (nrows, ncols), zero = shape, _entry(zero)
        rows = tuple({} for _ in range(nrows))
        for (i, j), x in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise MatrixError("entry (%d, %d) outside shape %s" % (i, j, shape))
            x = _entry(x)
            if _ring(x) != _ring(zero):
                raise MatrixError("mixed entry rings: %r" % ({_ring(zero), _ring(x)},))
            if x:
                rows[i][j] = x
        return _new(rows, ncols, zero)

    @staticmethod
    def identity(n, one=S_ONE):
        return Matrix.from_entries((n, n), {(i, i): one for i in range(n)}, one * 0)

    @property
    def shape(self):
        return (len(self._rows), self._ncols)

    @property
    def rows(self):
        """The entries as a tuple of row tuples, zeros included."""
        z, cols = self._zero, range(self._ncols)
        return tuple(tuple(r.get(j, z) for j in cols) for r in self._rows)

    def items(self):
        """The nonzero entries as ((i, j), entry), row by row."""
        return (((i, j), x) for i, r in enumerate(self._rows) for j, x in r.items())

    def __getitem__(self, rc):
        i, j = rc
        row, n = self._rows[i], self._ncols
        if not -n <= j < n:
            raise IndexError("matrix column index out of range")
        return row.get(j + n if j < 0 else j, self._zero)

    def _check_ring(self, other):
        if self._ncols and other._ncols and _ring(self._zero) != _ring(other._zero):
            raise MatrixError("entry rings differ")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise MatrixError("shape mismatch %s + %s" % (self.shape, other.shape))
        self._check_ring(other)
        out = tuple(dict(r) for r in self._rows)
        for acc, r in zip(out, other._rows):
            for j, b in r.items():
                accumulate(acc, j, b)
        return _new(out, self._ncols, self._zero)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _new(tuple({j: -x for j, x in r.items()} for r in self._rows), self._ncols, self._zero)

    def scale(self, s):
        out = tuple({} for _ in self._rows)
        for acc, r in zip(out, self._rows):
            for j, x in r.items():
                accumulate(acc, j, x * s)
        return _new(out, self._ncols, self._zero * s)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self._ncols != len(other._rows):
            raise MatrixError("shape mismatch %s x %s" % (self.shape, other.shape))
        self._check_ring(other)
        # row by row (Gustavson): row i sums a * (row k of other) over its stored (k, a)
        brows = other._rows
        out = []
        for row in self._rows:
            acc = {}
            for k, a in row.items():
                for j, b in brows[k].items():
                    accumulate(acc, j, a * b)
            out.append(acc)
        return _new(tuple(out), other._ncols, self._zero)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self._ncols == other._ncols and self._rows == other._rows

    def __hash__(self):
        return hash((self._ncols, tuple(frozenset(r.items()) for r in self._rows)))

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


def _new(rows, ncols, zero, m=None):
    # rows: a tuple of {column: nonzero entry} maps over zero's ring; a matrix
    # without rows has no columns either
    m = object.__new__(Matrix) if m is None else m
    object.__setattr__(m, "_rows", rows)
    object.__setattr__(m, "_ncols", ncols if rows else 0)
    object.__setattr__(m, "_zero", zero)
    return m


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
