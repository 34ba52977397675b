"""The registry of injected faults, and the one way to inject or refuse a function.

`FAULTS` maps each fault name to its layer, its target, a factory of the
wrong value from the real one, the `run_suite` parameters of its pin and
the pin: {suite: (cases, failed cases) or its `AlgebraError` message} for
each suite that does not pass.  `test_faults.py::test_fault_matrix` checks
every pin; a pin that changes is a test change.  A target "module.name" is
a function, rebound at every binding in a loaded `cliffordweyl` module, so
a refactor that adds a binding cannot slip past a fault; "module:Owner.name"
is that one attribute of that one owner.  The package has no hook for this.
"""

import importlib
import pkgutil
import sys
from fractions import Fraction
from functools import partial, reduce
from typing import Callable, NamedTuple

import cliffordweyl
from cliffordweyl import ore, starprod
from cliffordweyl.algebra import AlgebraError, CwElement, unit
from cliffordweyl.linalg import Matrix, add_row, reduce_row
from cliffordweyl.reps import GrassPolyVector
from cliffordweyl.scalars import GaussianRational, _make, i_power
from cliffordweyl.sparse import KERNELS
from cliffordweyl.suites import run_suite, suite_names

# every submodule, so that the binding finder sees every binding
for _module in pkgutil.iter_modules(cliffordweyl.__path__):
    importlib.import_module("cliffordweyl." + _module.name)

def empty_kernel_caches():
    """Empty every declared kernel, and `starprod`'s one-mode word dict."""
    for cached in KERNELS.values():
        cached.cache_clear()
    starprod._weyl_word_cache.clear()


class _EmptiedOnUndo(dict):
    """monkeypatch's undo deletes each key it set here after it has restored
    every attribute, and so empties the kernel caches of any faulty entry."""

    def __delitem__(self, key):
        super().__delitem__(key)
        empty_kernel_caches()


_UNDO = _EmptiedOnUndo()


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.partition(".")[0] == "cliffordweyl"]


def bindings(value):
    """(module, name) of every binding of `value` in a loaded cliffordweyl module."""
    return [(module, key) for module in _package_modules() for key, bound in list(vars(module).items()) if bound is value]


def rebind(monkeypatch, real, fake):
    """Rebind every package binding of `real` to `fake`; there must be one."""
    found = bindings(real)
    assert found, "no cliffordweyl module binds %r" % (real,)
    for module, key in found:
        monkeypatch.setattr(module, key, fake)


def resolve(target):
    """(owner, attribute name) of one target path; targets are separated by spaces."""
    path, _, name = target.replace(":", ".").rpartition(".")
    module, *owners = path.split(".")
    return reduce(getattr, owners, importlib.import_module("cliffordweyl." + module)), name


def inject(monkeypatch, name):
    """Put fault `name` in place until monkeypatch's undo, with the kernel
    caches emptied before and after, so the faulty run starts from no cached
    correct entry and no faulty entry is served to a later test."""
    fault = FAULTS[name]
    empty_kernel_caches()
    monkeypatch.setitem(_UNDO, name, None)
    for target in fault.target.split():
        owner, attr = resolve(target)
        real = getattr(owner, attr)
        if ":" in target:
            monkeypatch.setattr(owner, attr, fault.wrong(real))
        else:
            rebind(monkeypatch, real, fault.wrong(real))


def _refused(name, *args):
    raise AssertionError("refused " + name)


def refuse(monkeypatch, *functions):
    """Every package binding of each function raises AssertionError("refused <its name>")."""
    for function in functions:
        rebind(monkeypatch, function, partial(_refused, function.__name__))


def failing_suites(**params):
    """The pin format: each suite that does not pass under run_suite(name, **params)."""
    failed = {}
    for name in suite_names():
        try:
            result = run_suite(name, **params)
        except AlgebraError as exc:
            failed[name] = str(exc)
            continue
        if not result.passed:
            failed[name] = (result.cases, len(result.failures))
    return failed


class Fault(NamedTuple):
    layer: str
    target: str
    wrong: Callable  # the real value -> the wrong one
    params: dict  # of `run_suite` for the pin
    pin: dict


CASES_3, DEFAULTS = {"cases": 3}, {}


def _on_result(transform):
    """The factory of the function that returns transform(real(*args), *args)."""
    return lambda real: lambda *args: transform(real(*args), *args)


def _plus_unit(product):
    if product is starprod.star:
        return lambda a, b: product(a, b) + unit(a.signature)
    return lambda x, y: product(x, y) + ore.ore_unit(x.n)


def _double_order_one(out, *_):
    den, terms = out
    return den, tuple((m, 2 * num if m == 1 else num, P, Q) for m, num, P, Q in terms)


def _l_squared_slots(extra, ghost_only=False):
    """The lowering kernel with the L^2 slot x of each term (each ghost term) read as extra(x)."""

    def move(terms):
        return tuple((num, a, b, extra(x)) for num, a, b, x in terms)

    return _on_result(lambda out, *_: (out[0], out[1] if ghost_only else move(out[1]), move(out[2])))


def _drop_first_stored_term(real):
    def wrong(a, b):
        seen, rest = set(), {}
        for (i, k), x in a.terms.items():
            if i in seen:
                rest[i, k] = x
            seen.add(i)
        return real(Matrix.raw(a.space, rest), b)

    return wrong


def _flip_bose_past_grassmann(real):
    def wrong(desc, a, v):
        real(desc, a, v)  # the true act's argument checks
        out = GrassPolyVector(v.ell, v.k)
        for m, c in a.terms.items():
            for key, cv in v.terms.items():
                image = real(desc, CwElement(a.signature, {m: c}), GrassPolyVector(v.ell, v.k, {key: cv}))
                out = out + (-image if m.bose_degree() * key[0].bit_count() % 2 else image)
        return out

    return wrong


def _plus_for_minus(text):
    """text with each " - " outside parentheses, the join before a negative term, written " + "."""
    pieces = text.split(" - ")
    out = pieces[0]
    for piece in pieces[1:]:
        out += (" + " if out.count("(") == out.count(")") else " - ") + piece
    return out


def _skip_first_pivot(real):
    def wrong(pivots, row):
        if not pivots and reduce_row(pivots, row):
            return False
        return real(pivots, row)

    return wrong


def _drop_first_independent_row(rows):
    pivots, dropped = {}, False
    for row in rows:
        if not dropped and reduce_row(pivots, row):
            dropped = True
            continue
        add_row(pivots, row)
    return pivots


FAULTS = {
    # `star` and `ore_product` add their family's unit.  The brackets read
    # the bracket kernels and call neither product; `center`'s commutators
    # cancel the unit; the isos map it to the unit, and the cochain reads the
    # L^1 coefficient past it, whose two copies in the coboundary cancel;
    # `pi-h` and `commutant` build their matrices in closed form.  In
    # `ore-relations` only the rank-0 normal forms acting on z^m fail, and in
    # `verma` only the right side L P of [E+,E-] + 1/4 is a product.
    "unit": Fault("products", "starprod.star ore.ore_product", _plus_unit, CASES_3, {
        "associativity": (3, 3), "ghost": (45, 12), "hochschild": (69, 39), "matrix-iso": (10, 6),
        "odd-split": (27, 6), "ore-relations": (119, 48), "periodicity1": (24, 12), "periodicity2": (12, 6),
        "spin-lemma": (7, 7), "verma": (619, 153),
    }),
    # `_cliff_pair` flips the sign of each pair with a common generator.
    # `parastat` and `twisted-adjoint` pass: the fault makes a consistent
    # algebra of another signature at low degree, and `poisson` reads the
    # same kernel as the products those suites check it by.
    "cliff-parity": Fault(
        "products", "starprod._cliff_pair", _on_result(lambda out, I, J: (out[0] ^ bool(I & J), out[1])), DEFAULTS, {
            "cocycle": (134, 13), "ghost": (66, 33), "matrix-iso": (24, 20), "odd-split": (69, 36),
            "ore-relations": (119, 9), "osp22": (54, 16), "periodicity1": (80, 54), "periodicity2": (40, 24),
            "relations": (7, 1), "spin-lemma": (7, 4),
        },
    ),
    # Every order-one term of the one-mode Bose kernel has twice its
    # coefficient, so [p1, q1] comes out 2t and the product is not associative.
    "mode-order-one": Fault("products", "starprod._mode_pair", _on_result(_double_order_one), CASES_3, {
        "a0-iso": (56, 5), "associativity": (3, 3), "cocycle": (40, 2), "hochschild": (69, 3), "relations": (7, 2),
    }),
    # Every term of E-^beta E+^gamma that carries the ghost is read one L^2
    # slot too high.  In `cocycle` the first-order cochain on (p1, q1), which
    # the proportionality constant is read from, comes out 0, so there is no
    # constant: the (p1, q1) and (q1, p1) slots fail at both ranks, and the
    # suite still counts 2 * cases + 34 cases.
    "ghost-slot": Fault("products", "ore._lower_past_powers", _l_squared_slots(lambda x: x + 2, True), CASES_3, {
        "cocycle": (40, 4), "ghost": (45, 3), "ore-relations": (119, 49), "osp22": (54, 8),
    }),
    # The L^2 slots alone: every term with extra > 0 read one slot higher, or
    # every L power read as 0 (ghost^2 = 1).  E-^2 E+^2 has no L^2 term, so
    # only the rank-0 normal forms of E-^beta E+^gamma with min(beta, gamma)
    # >= 3 in `ore-relations` see either.
    "l2-slot-up": Fault("products", "ore._lower_past_powers", _l_squared_slots(lambda x: x and x + 2), CASES_3, {
        "ore-relations": (119, 46),
    }),
    "l2-slot-zero": Fault("products", "ore._lower_past_powers", _l_squared_slots(lambda x: 0), CASES_3, {
        "ore-relations": (119, 46),
    }),
    # The product loop's common denominator leaves out the second operand's:
    # each product is read over the first operand's denominators only.  A
    # bracket is one pass over a x b, so it drops b's denominators only.
    "one-operand-denominator": Fault(
        "products", "sparse.pair_product",
        lambda real: lambda a, b, pair: real(a, [(k, _make(c._re, c._im, 1)) for k, c in b], pair), CASES_3, {
            "a0-iso": (56, 2), "associativity": (3, 3), "hochschild": (69, 3), "matrix-iso": (10, 2),
            "odd-split": (27, 5), "osp22": (54, 12),
        },
    ),
    # Each row of a matrix product leaves out the first stored entry of the
    # left factor's row, so one term of every row's sum is dropped.
    "matrix-dropped-term": Fault("products", "linalg:Matrix._product", _drop_first_stored_term, CASES_3, {
        "matrix-iso": (10, 6), "pi-h": (220, 60),
    }),
    # The cw bracket kernel keeps the other order parity of each pair, as if
    # sigma had the other sign: every commutator comes out an anticommutator
    # and back.
    "cw-bracket-parity": Fault(
        "brackets", "starprod._bracket_kernel", lambda real: lambda odd: real(lambda m1, m2: not odd(m1, m2)),
        CASES_3, {"parastat": (345, 175), "relations": (7, 7), "twisted-adjoint": (264, 89)},
    ),
    # The ore bracket kernel's second order, m2 * m1, has the wrong sign.
    "ore-bracket-sign": Fault(
        "brackets", "ore.bracket_kernel", lambda real: lambda n, odd: real(n, lambda m1, m2: not odd(m1, m2)),
        CASES_3, {"ghost": (45, 33), "ore-relations": (119, 71), "osp22": (54, 34)},
    ),
    # Both bindings of `_times_volume` drop the i^(width // 2) of the volume
    # word (not a whole-factor sign flip: z -> -z is another valid
    # isomorphism).  The suites' products never reach the closed-form maps,
    # so a fault in the products leaves these checks untried.
    "volume-phase": Fault(
        "transports", "periodicity._times_volume", _on_result(lambda out, mask, w: (out[0] * i_power(-(w // 2)), out[1])),
        DEFAULTS, {
            "matrix-iso": (24, 6), "odd-split": (69, 16), "periodicity1": (80, 49), "periodicity2": (40, 15),
            "pi-h": (220, 20),
        },
    ),
    # `iso_a0_to_cw` drops the (-1)^s of q^a * p^b's odd orders.  Its
    # numerators are the only negative ratios `deform` builds, so taking the
    # sign off every ratio there takes off exactly that one.
    "iso-order-sign": Fault(
        "transports", "deform:gr_ratio", lambda real: lambda num, den: real(abs(num), den),
        DEFAULTS, {"a0-iso": (250, 224), "cocycle": (134, 15)},
    ),
    # The Fermi ladder reads i (Q_j - P_j) with the other sign, i^3 for i^1
    # and back, for each even-index generator: the automorphism w_{2j+2} ->
    # -w_{2j+2}, which every homomorphism law accepts, so only the spin
    # lemma's fixed values see it.
    "ladder-quarter": Fault(
        "transports", "reps._ladder",
        _on_result(lambda out, fermi, *_: (out[0], out[1] + 2 * sum(not i & 1 for i in fermi))), CASES_3,
        {"spin-lemma": (7, 2)},
    ),
    # `act` negates each (monomial, carrier term) pair whose Bose degree times
    # Grassmann degree is odd: a coverage gap of the suites, see
    # `test_writer_and_act_faults.py`.
    "act-bose-sign": Fault("transports", "reps.act", _flip_bose_past_grassmann, CASES_3, {}),
    # A negative term after the first is joined with " + ".  Checks compare
    # elements, not text, so no suite fails.
    "writer-join-sign": Fault(
        "writer", "textform.element_to_text", lambda real: lambda e: _plus_for_minus(real(e)), CASES_3, {}
    ),
    # E+ lowers z^k by k/2 alone, so z^(4h+1) is no longer killed at h + 1/4.
    "lowering-weight": Fault(
        "weight module", "deform._lowering_factor", lambda real: lambda lam, k: GaussianRational(Fraction(k, 2)),
        DEFAULTS, {"ore-relations": (119, 46), "pi-h": (220, 16), "verma": (4087, 1027)},
    ),
    # E- raises z^m by the factor +1/2 in place of -1/2.
    "e-minus-sign": Fault("weight module", "deform:_E_MINUS_FACTOR", lambda real: -real, DEFAULTS, {
        "ore-relations": (119, 46), "pi-h": (220, 16), "verma": (4087, 1020),
    }),
    # `add_row` refuses a row while the echelon form is empty, so no
    # elimination ever sets its first pivot and every rank reads 0.  The
    # commutant spin-up then takes no basis vector and starts from every
    # standard vector, so pi_h reads d^2 as the d^2-unknown solve did: only
    # the two of dimension 1 pass.  (Skipping only the first independent row
    # of each elimination fails `matrix-iso` and `parastat` alone.)
    "skipped-pivot": Fault("linear algebra", "linalg.add_row", _skip_first_pivot, DEFAULTS, {
        "center": (140, 68), "commutant": (20, 18), "matrix-iso": (24, 2), "parastat": (345, 4),
    }),
    # Each elimination drops its first independent row.  Only `matrix-iso`,
    # whose rank check counts every basis image, fails.  `center` keeps its
    # answer: on its default grid the row dropped is a combination of the
    # rows after it.  `commutant_probe` does not call `sparse_rref` (its
    # spin-up adds rows one at a time), so its dimensions cannot move here.
    "dropped-row": Fault("linear algebra", "linalg.sparse_rref", lambda real: _drop_first_independent_row, DEFAULTS, {
        "matrix-iso": (24, 2),
    }),
    # The relations that the spin-up finds for the first generator in sorted
    # order, E+, are dropped.  The basis still spans, but X need no longer
    # commute with E+: each pi_h with h > 0 reads a commutant of dimension
    # 2h + 1, the four with h = 0 still read 1.  No other suite probes a
    # commutant.  (Dropping the relations of any other single generator
    # changes no answer on the grid.)
    "spin-up-relations": Fault(
        "linear algebra", "deform._spin_up", _on_result(lambda out, *_: (*out[:2], [r for r in out[2] if r[0] != 0])),
        DEFAULTS, {"commutant": (20, 16)},
    ),
}
