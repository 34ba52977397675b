"""The dense matrix that `linalg.Matrix` replaced, kept as an oracle.

`DenseMatrix` stores every entry, zeros included, as a tuple of row tuples
and computes each operation entry by entry over the whole grid.  The sparse
`Matrix` must agree with it on every operation, text forms included.
"""

from cliffordweyl.linalg import MatrixError, _entry, _ring
from cliffordweyl.scalars import S_ONE, Scalar


class DenseMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rr = tuple(tuple(_entry(x) for x in r) for r in rows)
        if rr and any(len(r) != len(rr[0]) for r in rr):
            raise MatrixError("ragged matrix")
        rings = {_ring(x) for r in rr for x in r}
        if len(rings) > 1:
            raise MatrixError("mixed entry rings: %r" % (rings,))
        object.__setattr__(self, "rows", rr)

    @staticmethod
    def identity(n, one=S_ONE):
        z = one * 0
        return DenseMatrix([[one if i == j else z for j in range(n)] for i in range(n)])

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
        if self.shape != other.shape:
            raise MatrixError("shape mismatch %s + %s" % (self.shape, other.shape))
        self._check_ring(other)
        return _raw(tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _raw(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, s):
        return _raw(tuple(tuple(a * s for a in r) for r in self.rows))

    def __mul__(self, other):
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
        return _raw(tuple(out))

    def kron(self, other):
        """Kronecker product, self's index varying slowest."""
        self._check_ring(other)
        return _raw(tuple(tuple(a * b for a in ra for b in rb) for ra in self.rows for rb in other.rows))

    def __eq__(self, other):
        return isinstance(other, DenseMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix([%s])" % ", ".join("[%s]" % ", ".join(str(x) for x in r) for r in self.rows)

    def to_json(self):
        return [[x.to_json() for x in r] for r in self.rows]


def _raw(rows):
    m = object.__new__(DenseMatrix)
    object.__setattr__(m, "rows", rows)
    return m
