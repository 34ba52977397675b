"""Two faults outside the product layer, and what catches them.

Both are `faults.FAULTS` entries, injected on every binding of the true
function in the package; their pins are empty, as no suite fails under them.

- The text writer joins a negative term after the first with " + ", so
  the term prints without its sign.  Checks compare elements, not text,
  so no suite fails, and no passing report prints such an element.  Of the
  pins, only the faulty-report pins see it, in the failure records of
  seven suites; of the other tests, the text-form fixtures
  (`test_textform.py`, `test_algebra.py::test_text_fixtures`,
  `test_deform.py::test_forward_text_form`).
- `act` gives the Bose generators passing xi^G the wrong sign: each
  (monomial, carrier term) pair whose Bose degree times Grassmann degree is
  odd is negated.  The suites realize only spin modules, whose carriers
  have no polynomial variables, so only monomials of Bose degree 0 act
  there: no suite fails and no report changes.  That is a coverage gap.
  The module tests catch it: acceptance criterion 3 and twelve tests in
  `test_reps.py` that compare `act` on the spin-metaplectic modules with
  the reference act, the product or the defining relations.
"""

import hashlib

from faults import FAULTS, inject
from test_report_bytes import FAULTY_REPORT_SHA256, REPORT_SHA256

from cliffordweyl import reps
from cliffordweyl.algebra import AlgebraSignature, bose_p, fermi_gen, unit
from cliffordweyl.reps import GrassPolyVector, spin_metaplectic
from cliffordweyl.scalars import Scalar
from cliffordweyl.suites import report_bytes, run_suite, suite_names

REAL_ACT = reps.act


def _changed_digests(pins, **params):
    digests = {name: hashlib.sha256(report_bytes(run_suite(name, **params))).hexdigest() for name in suite_names()}
    return sorted(name for name, digest in digests.items() if digest != pins[name])


def test_the_writer_fault_drops_the_sign_of_a_later_term(monkeypatch):
    inject(monkeypatch, "writer-join-sign")
    sig = AlgebraSignature(1, 1)
    w, p = fermi_gen(sig, 1), bose_p(sig, 1)
    assert str(p - w) == "p1 + w1"
    assert str(w - p) == "-p1 + w1"  # a negative first term keeps its sign
    assert str(unit(sig) + w.scale(Scalar.of(1, -2))) == "1 + (1 - 2*i) * w1"


# The faulty-report pins that the writer fault changes: under the faulty
# products of `test_report_bytes.py`, these suites' failure records print an
# element with a negative term after its first.  `ghost`, `ore-relations`
# and `verma` fail there too, but print no such element.
WRITER_FAULT_FAULTY_PINS = [
    "associativity", "hochschild", "matrix-iso", "odd-split", "periodicity1", "periodicity2", "spin-lemma",
]


def test_no_suite_fails_under_the_writer_fault():
    assert FAULTS["writer-join-sign"].pin == {}


def test_no_passing_report_pin_sees_the_writer_fault(monkeypatch):
    inject(monkeypatch, "writer-join-sign")
    assert _changed_digests(REPORT_SHA256) == []


def test_faulty_report_pins_catch_the_writer_fault(monkeypatch):
    inject(monkeypatch, "writer-join-sign")
    inject(monkeypatch, "unit")
    assert _changed_digests(FAULTY_REPORT_SHA256, cases=3) == WRITER_FAULT_FAULTY_PINS


def test_the_act_fault_flips_a_bose_generator_past_a_grassmann_variable(monkeypatch):
    inject(monkeypatch, "act-bose-sign")
    desc = spin_metaplectic(1, 1)
    sig = desc.signature()
    for g, sign in ((0, 1), (1, -1)):
        v = GrassPolyVector.basis(1, 1, g, (1,))
        assert reps.act(desc, bose_p(sig, 1), v) == REAL_ACT(desc, bose_p(sig, 1), v).scale(sign)
        assert reps.act(desc, fermi_gen(sig, 1), v) == REAL_ACT(desc, fermi_gen(sig, 1), v)


def test_no_suite_fails_under_the_act_fault():
    assert FAULTS["act-bose-sign"].pin == {}


def test_no_report_pin_sees_the_act_fault(monkeypatch):
    inject(monkeypatch, "act-bose-sign")
    # the coverage gap: every report keeps its bytes under the fault
    assert _changed_digests(REPORT_SHA256) == []
