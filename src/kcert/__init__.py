"""kcert: exact certification of convexity and critical-point claims
for a curvature objective on del Pezzo Kahler cones.

Importing ``kcert`` or one of its modules loads only what that module
imports: ``import kcert.functional`` loads ``poly``, ``delpezzo``,
``polytope``, ``univar`` and ``functional``, never the certifier or the
fixture parser.  The package's names (``__all__``) resolve on first access
(PEP 562): ``__getattr__`` imports the submodule that ``_EXPORTS`` names for
the name and hands back that submodule's own object, so ``from kcert import
run_lemma`` loads ``certify`` and what it imports.  A name joins the package
through ``_EXPORTS``, never through an import here.  ``kcert.cli`` imports
every module eagerly, since ``verify`` and ``report`` run them all.
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule that defines each of the package's names
_EXPORTS = {
    "poly": (
        "MultiPoly",
        "RatFunc",
        "coefficients_all_nonneg",
        "directional_second_derivative",
    ),
    "exprparse": (
        "ComparisonVerdict",
        "FixtureFile",
        "ParseError",
        "compare_against_fixture",
        "load_fixture",
        "parse_expression",
    ),
    "polytope": (
        "ParamPolygon",
        "boundary_integral",
        "build_polygon",
        "integrate_monomial",
    ),
    "delpezzo": (
        "AreaVector",
        "CohClass",
        "ConeChart",
        "K2_CHART",
        "K3_CHART",
        "c1_class",
        "cremona",
        "pair",
        "subspace_membership",
    ),
    "functional": (
        "FunctionalBundle",
        "build_bundle",
        "evaluate_calA_on_areas",
        "first_variation_along_c1",
        "restrict_diagonal",
    ),
    "sturm": ("sturm_isolate",),
    "certify": (
        "LemmaReport",
        "PositivityCertificate",
        "run_lemma",
        "verify_convexity",
        "verify_inequality_chain",
        "verify_uniqueness_k2",
        "verify_uniqueness_k3",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
