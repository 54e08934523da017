"""Exact subspace lattices and partial projections over Q and Q(i).

The package computes with finite-dimensional inner-product spaces whose
scalars are rationals or Gaussian rationals, so every subspace
operation, projection, and law check is a decision, not an
approximation.  The central objects are canonical subspaces, orthogonal
pairs of subspaces, and the partial projections they correspond to.

Importing the package imports none of its modules.  Each public name,
and each submodule, is read from the table below: the first read imports
the module that defines it (PEP 562) and keeps the value here, so
``import orthoql.subspace`` loads only what ``subspace`` needs.
"""

__version__ = "0.1.0"

# Each submodule, with the public names it defines.
_EXPORTS = {
    "errors": (
        "AmbientMismatch",
        "DimensionMismatch",
        "NotInDomain",
        "OrthoQLError",
        "ParseError",
        "SingularGram",
    ),
    "generators": (),
    "kernel": (),
    "laws": (
        "CLQL_LAWS",
        "COMPLQL_LAWS",
        "FAILING_LAWS",
        "PLS_LAWS",
        "Counterexample",
        "LawReport",
        "LawResult",
        "check_catalog",
        "check_clql",
        "check_comm",
        "check_complql",
        "check_lescomp",
        "check_pls",
        "find_counterexample",
    ),
    "linalg": ("Matrix", "Vector", "inner", "norm_sq"),
    "ortho": (
        "OrthoSubspace",
        "o_eq",
        "o_iff",
        "o_implies",
        "o_join",
        "o_leq",
        "o_meet",
        "o_minus",
        "o_neg",
        "o_not",
        "o_perp",
    ),
    "partial_op": (
        "PartialOperator",
        "PartialProjection",
        "check_order",
        "commuting_calculus",
        "compose",
        "cor7_calculus",
        "decompose",
        "identity_on",
        "norm_sq_is_one",
        "o_neq",
        "op_eq",
        "op_neq",
        "pls_add",
        "pls_negate",
        "pls_scale",
        "pls_sub",
        "pls_zero_of",
        "proj_compl",
        "proj_iff",
        "proj_implies",
        "proj_join",
        "proj_leq",
        "proj_meet",
        "proj_minus",
        "proj_not",
        "proj_orthogonal",
        "projection_of",
        "subspaces_of",
        "total_identity",
        "total_zero",
        "zero_on",
    ),
    "quotient": ("QuotientSpace",),
    "scalars": ("Field", "GaussianRational", "Scalar"),
    "subspace": ("Subspace", "coperp_rel", "perp_rel"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so that ``python -X
    # importtime`` lists the module; with a fromlist it returns the module.
    module = __import__(f"{__name__}.{home}", fromlist=[name])
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOME, *_EXPORTS})
