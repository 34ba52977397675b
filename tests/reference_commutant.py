"""The commutant solve that `deform.commutant_probe`'s spin-up replaced,
kept as an oracle.

It stacks the entries of XM - MX = 0 for every generator matrix M as
equations on all d^2 entries of X and counts the free variables of
`sparse_nullspace`, so it shares no step with the spin-up but the
eliminator.
"""

from cliffordweyl.algebra import AlgebraError
from cliffordweyl.linalg import sparse_nullspace
from cliffordweyl.sparse import accumulate


def reference_commutant_dimension(rep):
    """Dimension of {X : [X, M] = 0 for every generator matrix M}."""
    mats = [rep[k] for k in sorted(rep)] if isinstance(rep, dict) else list(rep)
    if not mats:
        raise AlgebraError("empty representation")
    d = mats[0].shape[0]
    variables = [(i, j) for i in range(d) for j in range(d)]
    rows = []
    for M in mats:
        if M.shape != (d, d):
            raise AlgebraError("mixed matrix sizes")
        # (XM - MX)_ij: X_ik M_kj over column j's nonzeros, -M_ik X_kj over row i's
        by_row, by_col = [[] for _ in range(d)], [[] for _ in range(d)]
        for (i, k), x in M.items():
            g = x.constant()
            by_row[i].append((k, -g))
            by_col[k].append((i, g))
        for i in range(d):
            for j in range(d):
                row = {}
                for k, g in by_col[j]:
                    accumulate(row, (i, k), g)
                for k, g in by_row[i]:
                    accumulate(row, (k, j), g)
                if row:
                    rows.append(row)
    return len(sparse_nullspace(rows, variables))
