"""Pointwise Hochschild coboundary evaluation.

Cochains are multilinear evaluators, never stored tensors: the algebras
are infinite-dimensional, so everything here is a pointwise identity on
supplied inputs.  The coboundary of a k-evaluator is the usual
alternating (k+2)-term sum with products taken in the evaluator's own
algebra; elements only need `*` and `+`, which both the symbol algebras
and the deformed normal-form algebras provide.
"""

import itertools

from .sparse import AlgebraError, Checks, element_tag


class CochainEvaluator:
    """A k-linear map given by an arity, a rule, and an algebra tag."""

    __slots__ = ("arity", "rule", "tag")

    def __init__(self, arity, rule, tag):
        if arity < 0:
            raise AlgebraError("arity must be non-negative")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, name, value):
        raise AttributeError("CochainEvaluator is immutable")

    def __call__(self, *args):
        if len(args) != self.arity:
            raise AlgebraError(
                "arity %d evaluator got %d arguments" % (self.arity, len(args))
            )
        for a in args:
            if element_tag(a) != self.tag:
                raise AlgebraError("argument outside the tagged algebra: %r" % (a,))
        return self.rule(*args)


def cochain_from_element(x):
    """The 0-cochain whose value is the given element."""
    return CochainEvaluator(0, lambda: x, element_tag(x))


def multiplication_cochain(example):
    """The 2-cochain (a, b) -> ab in the algebra of the example element."""
    return CochainEvaluator(2, lambda a, b: a * b, element_tag(example))


def identity_cochain(example):
    return CochainEvaluator(1, lambda a: a, element_tag(example))


def coboundary(omega):
    """The alternating-sum differential, one arity up.

    For a 0-cochain (a constant element c) this is a -> ac - ca; in
    general the first and last slots multiply the value from outside and
    the interior terms contract adjacent arguments.
    """
    k = omega.arity

    def rule(*args):
        total = args[0] * omega(*args[1:])
        sign = -1
        for i in range(k):
            inner = args[:i] + (args[i] * args[i + 1],) + args[i + 2 :]
            term = omega(*inner)
            total = total + term if sign > 0 else total - term
            sign = -sign
        last = omega(*args[:-1]) * args[-1]
        return total + last if sign > 0 else total - last

    return CochainEvaluator(k + 1, rule, omega.tag)


def _vanishing_report(suite, cochain, sample_tuples):
    checks = Checks()
    for t in sample_tuples:
        checks.check(t, cochain(*t), 0)
    return checks.report(suite)


def is_cocycle(omega, sample_tuples):
    """Pointwise vanishing of the coboundary on the supplied tuples."""
    return _vanishing_report("is-cocycle", coboundary(omega), sample_tuples)


def d_squared_check(omega, sample_tuples):
    """Pointwise vanishing of the squared differential (tuples of arity+2)."""
    return _vanishing_report("d-squared", coboundary(coboundary(omega)), sample_tuples)


def relative_normalized_check(omega, subalgebra_basis, samples):
    """The four conditions of a normalized subalgebra-relative cochain.

    For every C in the subalgebra basis and arguments from the samples:
    C may be pulled out of the first slot, moved across adjacent slots,
    pulled out of the last slot, and the value vanishes whenever one
    argument lies in the subalgebra itself.
    """
    k = omega.arity
    if k < 1:
        raise AlgebraError("relative conditions need arity >= 1")
    checks = Checks()
    for c in subalgebra_basis:
        for t in itertools.product(samples, repeat=k):
            checks.check(
                ("pull-out-left", c) + t,
                omega(*((c * t[0],) + t[1:])),
                c * omega(*t),
            )
            checks.check(
                ("pull-out-right",) + t + (c,),
                omega(*(t[:-1] + (t[-1] * c,))),
                omega(*t) * c,
            )
            for i in range(k - 1):
                checks.check(
                    ("move-across-%d" % (i + 1),) + t[: i + 1] + (c,) + t[i + 1 :],
                    omega(*(t[:i] + (t[i] * c, t[i + 1]) + t[i + 2 :])),
                    omega(*(t[: i + 1] + (c * t[i + 1],) + t[i + 2 :])),
                )
        # vanishing with a subalgebra element in any slot
        for i in range(k):
            for t in itertools.product(samples, repeat=k - 1):
                args = t[:i] + (c,) + t[i:]
                checks.check(("vanish-slot-%d" % (i + 1),) + args, omega(*args), 0)
    return checks.report("relative-normalized")
