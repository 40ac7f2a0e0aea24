"""The public names of `tilecohom`: the package's contract.

Internals may be merged or deleted freely, but a name that `tilecohom`
exports may not appear or disappear by accident.  This pins the set of
public names bound in the package namespace (every name without a leading
underscore that is not a submodule), so a deletion that reaches the
contract fails here and has to change this list on purpose.
"""
import types

import tilecohom

# grouped by the module of `tilecohom` that defines them
PUBLIC = {
    # abelian
    "FgAbGroup", "GroupHom", "IntMatrix", "SnfResult", "cokernel",
    "induced_hom", "kernel_basis", "lattice_basis", "rank", "snf", "solve",
    "solve_matrix",
    # catalog
    "FactorPath", "SpaceId", "compute_path", "compute_quotient",
    "compute_space", "consistency_cross_checks", "golden_table", "verify_all",
    # complexes
    "CellularMap", "CochainComplex", "QuotientComplex", "cohomology",
    "cohomology_tower", "hom_on_cohomology", "lemma1_shortcut",
    "les_quotient", "pullback", "quotient_complex",
    # errors
    "ExactnessFailure", "HypothesisFailed", "InvalidPath", "NotACochainMap",
    "NotBorderForcing", "NotInjectiveOnCochains", "NotPrimitive",
    "NotWellDefined", "TilingCohomologyError", "Unclassified",
    # limits
    "GroupExpr", "TowerGroup", "classify", "eventual_restriction",
    "iso_check", "limit_les", "radical", "verify_split",
    # subst1d
    "Substitution1D", "absolute_cohomology_1d", "ap_complex_1d",
    "factor_map_1d", "factor_map_phi", "factor_map_psi", "legal_words",
    "pd_substitution", "quotient_cohomology_1d", "solenoid_substitution",
    "tm_substitution", "verify_times2_ses",
    # subst2d
    "Substitution2D", "ap_complex_2d", "border_forcing_check",
    "compose_path", "descend_rule", "enumerate_prototiles",
    "factor_map_edge", "lattice_edges", "legal_adjacencies",
    "path_realizations",
}


def exported():
    return {name for name, value in vars(tilecohom).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)}


def test_public_names_are_pinned():
    assert exported() == PUBLIC

