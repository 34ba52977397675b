"""The integer kernels read back as Gaussian-rational terms.

`starprod._weyl_pair` gives (den, ((order, num, P, Q), ...)) and
`ore._lower_past_powers` gives (den, plain, ghost) with integer numerators
over one denominator.  The oracles in `reference_weyl_kernel.py` and
`reference_ore_kernel.py` give each term's coefficient as a reduced
GaussianRational; these converters put the library's kernels in that form,
term by term, so the comparisons stay exact.  Each also checks that the
denominator is positive and that no numerator is zero.
"""

from cliffordweyl.scalars import gr_ratio


def weyl_terms(kernel):
    """(den, ((order, num, P, Q), ...)) as ((order, num/den, P, Q), ...)."""
    den, terms = kernel
    assert den > 0 and all(num for _, num, _, _ in terms), kernel
    return tuple((order, gr_ratio(num, den), P, Q) for order, num, P, Q in terms)


def lowering_terms(kernel):
    """(den, plain, ghost) as ((num/den, a, eps, b, extra), ...) sorted by (a, eps, b, extra)."""
    den, plain, ghost = kernel
    assert den > 0 and all(t[0] for t in plain + ghost), kernel
    terms = [(gr_ratio(num, den), a, eps, b, extra) for eps, part in enumerate((plain, ghost)) for num, a, b, extra in part]
    return tuple(sorted(terms, key=lambda t: t[1:]))
