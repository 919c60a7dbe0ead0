"""Exact-arithmetic toolkit for Lie-Yamaguti algebras, their
representations and cohomology, relative Rota-Baxter operators on them, and
deformations of those operators. All computations are over the rationals.

Every public name is listed once, in `_EXPORTS`, with the submodule that
defines it. Submodules load on first use (PEP 562), so importing the package,
or running a `lyat` command, compiles only the modules actually used."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys((
        "Matrix", "Rational", "Vector", "commutator", "inverse", "is_zero_vector",
        "rank_kernel", "rat", "rat_str", "solve_linear", "vadd", "vector", "vneg",
        "vscale", "vsub", "vzero"), "linalg"),
    **dict.fromkeys((
        "AxiomReport", "InputError", "InvalidAlgebra", "InvalidRepresentation", "JacobiViolation",
        "LYAlgebra", "Representation", "Violation", "adjoint_rep", "check_lya",
        "check_representation", "lya_from_lie", "zero_rep", "wedge_basis"), "structures"),
    **dict.fromkeys((
        "Cochain", "CohomologySummary", "ComplexContext", "cochain_dim",
        "coboundary", "coboundary_matrix", "cohomology_dims"), "complexes"),
    **dict.fromkeys((
        "NotAutomorphism", "NotIntertwining", "NotNijenhuis", "NotRotaBaxter", "RelRBO",
        "UnverifiedOperator", "Wedge2", "check_rbo", "conjugate_rbo", "deformed_brackets",
        "induced_lya_on_v", "induced_rep_on_g", "lift_to_nijenhuis", "nijenhuis_operator_check",
        "pre_ly_products", "rbo_homomorphism_check", "semidirect"), "rbo"),
    **dict.fromkeys((
        "RboComplex", "rbo_coboundary_matrix", "rbo_cohomology_dims", "rbo_delta0",
        "rbo_delta1_expanded"), "rbo_cohomology"),
    **dict.fromkeys((
        "NijenhuisReport", "NotLinearDeformation", "NotNijenhuisElement",
        "NotOrderN", "ObstructionResult", "RigidityProbe", "TruncatedDeformation",
        "equivalence_check_linear", "extend_deformation", "linear_deformation_check",
        "nijenhuis_element_check", "obstruction", "order_n_check",
        "pre_ly_deformation_terms", "rigidity_probe", "trivial_deformation_from"),
        "deformation"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
