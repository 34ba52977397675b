"""Exact star products, representations and polynomial deformations of
mixed Clifford/Weyl symbol algebras.

The package attributes load on first use (PEP 562): reading a name imports
the submodule that provides it, so a CLI child that evaluates one expression
never imports the verification suites.  A name is read from its submodule
on every access and never cached here, so a value patched into the
submodule and later restored reads back restored.
"""

import importlib
import sys

__version__ = "0.1.0"

# submodule -> the names it exports through the package
_EXPORTS = {
    "scalars": "GaussianRational Scalar",
    "algebra": "AlgebraError AlgebraSignature BiDegree CwElement CwMonomial SignatureMismatch"
    " bidegree bose_p bose_q canonicalize fermi_gen generators scalar_element unit z_degree zero",
    "starprod": "ProductKind anti_bracket lie_bracket poisson star super_bracket supertrace_weyl"
    " to_star_words trace_clifford wedge",
    "linalg": "Matrix MatrixError sparse_nullspace sparse_rank sparse_rref",
    "osp": "OspContext build_g expected_dimension form twisted_adjoint verify_invariance verify_ps",
    "periodicity": "TensorElement cw_to_matrix matrix_star module_transport odd_join"
    " odd_projections odd_split periodicity1_forward periodicity1_inverse tensor_of tensor_star"
    " volume_involution",
    "reps": "GrassPolyVector RepDescriptor RepKind act clifford_op_to_symbol metaplectic"
    " rep_matrix spin spin_metaplectic spin_metaplectic_minus spin_metaplectic_plus spin_minus"
    " spin_plus spin_rep_odd_sign_check",
    "ore": "OreElement OreMonomial ghost_theta ore_anti_bracket ore_e_minus ore_e_plus ore_fermi"
    " ore_generators ore_lambda ore_lie_bracket ore_product ore_relations_report ore_scalar"
    " ore_super_bracket ore_unit ore_zero specialize specialized_product",
    "deform": "PolyOperator center_probe commutant_probe compare_cocycle cw_odd_signature"
    " deformation_cochain_c1 finite_irrep_pi_h ghost_identities iso_a0_to_cw iso_cw_to_a0"
    " ore_to_matrix osp22_check periodicity2 periodicity2_forward periodicity2_inverse"
    " pi_h_lambda pi_h_matrix verma_apply verma_operator volume_word_element",
    "hochschild": "CochainEvaluator coboundary cochain_from_element d_squared_check element_tag"
    " identity_cochain is_cocycle multiplication_cochain relative_normalized_check",
    "exprs": "CwContext OreContext ParseError evaluate evaluate_text parse parse_algebra"
    " print_expr tokenize",
    "suites": "SuiteResult SuiteUsageError report_bytes run_suite suite_names",
}
_SOURCE = {name: __name__ + "." + module for module, names in _EXPORTS.items() for name in names.split()}

# the submodules, readable as attributes as when the package imported them all
_SUBMODULES = set(_EXPORTS) | {"sparse", "textform"}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    source = _SOURCE.get(name)
    if source is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(sys.modules.get(source) or importlib.import_module(source), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
