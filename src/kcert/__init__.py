"""kcert: exact certification of convexity and critical-point claims
for a curvature objective on del Pezzo Kahler cones."""

from .poly import (
    MultiPoly,
    RatFunc,
    coefficients_all_nonneg,
    directional_second_derivative,
)
from .exprparse import (
    ComparisonVerdict,
    FixtureFile,
    ParseError,
    compare_against_fixture,
    load_fixture,
    parse_expression,
)
from .polytope import (
    ParamPolygon,
    boundary_integral,
    build_polygon,
    integrate_monomial,
)
from .delpezzo import (
    AreaVector,
    CohClass,
    ConeChart,
    K2_CHART,
    K3_CHART,
    c1_class,
    cremona,
    pair,
    subspace_membership,
)
from .functional import (
    FunctionalBundle,
    build_bundle,
    evaluate_calA_on_areas,
    first_variation_along_c1,
    restrict_diagonal,
)
from .sturm import sturm_isolate
from .certify import (
    LemmaReport,
    PositivityCertificate,
    run_lemma,
    verify_convexity,
    verify_inequality_chain,
    verify_uniqueness_k2,
    verify_uniqueness_k3,
)

__version__ = "0.1.0"
