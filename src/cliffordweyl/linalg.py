"""Exact linear algebra over Gaussian rationals.

One immutable matrix type, whose entries are Scalars or elements of one
algebra (representation images, matrix realizations, Kronecker assembly),
and a sparse reduced-row-echelon solver used by the centralizer probes and
the linear-independence checks.  Everything is exact; there is no floating
point anywhere in this package.
"""

from __future__ import annotations

from .algebra import AlgebraError
from .hochschild import element_tag
from .scalars import GR_ONE, S_ONE, Scalar, _coerce_scalar
from .sparse import accumulate


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

    Plain numbers become Scalars.  Products use the entries' own `*`, so a
    matrix over an algebra multiplies with that algebra's product.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rr = tuple(tuple(_entry(x) for x in r) for r in rows)
        if rr and any(len(r) != len(rr[0]) for r in rr):
            raise MatrixError("ragged matrix")
        rings = {_ring(x) for r in rr for x in r}
        if len(rings) > 1:
            raise MatrixError("mixed entry rings: %r" % (rings,))
        object.__setattr__(self, "rows", rr)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n, one=S_ONE):
        z = one * 0
        return Matrix([[one if i == j else z for j in range(n)] for i in range(n)])

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, rc):
        return self.rows[rc[0]][rc[1]]

    def _check_ring(self, other):
        if self.rows and self.rows[0] and other.rows and other.rows[0]:
            if _ring(self.rows[0][0]) != _ring(other.rows[0][0]):
                raise MatrixError("entry rings differ")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise MatrixError("shape mismatch %s + %s" % (self.shape, other.shape))
        self._check_ring(other)
        return _raw_matrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _raw_matrix(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, s):
        return _raw_matrix(tuple(tuple(a * s for a in r) for r in self.rows))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        m, p = self.shape[1], other.shape[1]
        if m != other.shape[0]:
            raise MatrixError("shape mismatch %s x %s" % (self.shape, other.shape))
        self._check_ring(other)
        zero = self.rows[0][0] * 0 if m else Scalar()
        out = []
        for row in self.rows:
            acc = [zero] * p
            for a, brow in zip(row, other.rows):
                if a:
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] = acc[j] + a * b
            out.append(tuple(acc))
        return _raw_matrix(tuple(out))

    def __rmul__(self, other):
        return self.scale(other)

    def kron(self, other):
        """Kronecker product, self's index varying slowest."""
        self._check_ring(other)
        return _raw_matrix(
            tuple(tuple(a * b for a in ra for b in rb) for ra in self.rows for rb in other.rows)
        )

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

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


def _raw_matrix(rows):
    # internal: rows is a tuple of equal-length tuples of entries from one ring
    m = object.__new__(Matrix)
    object.__setattr__(m, "rows", rows)
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


def vectors_independent(vecs):
    """Whether sparse vectors {key: GaussianRational} are linearly independent."""
    vecs = list(vecs)
    return sparse_rank(vecs) == len(vecs)
