"""paratower: exact paradoxical towers, boundary witnesses, and the
crossed-product isometry, with machine-checkable certificates."""

from .boundary import (
    AperiodicPoint,
    ClopenSet,
    GeodesicMap,
    PeriodicPoint,
    ProductClopen,
    TranslatedPoint,
    shrink,
)
from .coloring import Coloring, greedy_color
from .comparison import (
    ComparisonCertificate,
    ComparisonInstance,
    CountingData,
    SubeqWitness,
    boost,
    build_comparison,
    compose,
    petr_assign,
    verify_witness,
)
from .crossed import (
    CrossedElement,
    IsometryCertificate,
    StepFunction,
    build_isometry,
    cp_add,
    cp_adjoint,
    cp_multiply,
    cp_scale,
    expectation,
    isometry_checks,
)
from .groups import FiniteGroup, cyclic_group
from .subsets import GroupSubset, NormalForm, cone, finite
from .towers import (
    TowerCertificate,
    TowerFamily,
    extension_towers,
    f2_strengthened_towers,
    f2_towers,
    finite_normal_ext_towers,
    more_towers,
    towers_from_filling,
    union_towers,
    verify_towers,
)
from .words import Ball, ball, ball_size, inverse, multiply, reduce_word

__version__ = "0.1.0"
