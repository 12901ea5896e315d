"""dwlab: dyadic laboratory for matrix weights and Carleson paraproducts."""

from .grid import (
    Cube,
    Grid,
    WeightField,
    FieldFormatError,
    root_cube,
    read_weight_field,
    write_weight_field,
)
from .weights import (
    ClassReport,
    class_report,
)
from .stopping import (
    StoppingCriterion,
    StoppingResult,
    run_stopping,
    packing_constant,
    volberg_stop,
    kato_family_stop,
    corona_stop,
    martingale_square_check,
    loewner_geq,
)
from .cones import (
    ConeNet,
    maximizing_vector_bound,
    build_net,
    sector_membership,
    coverage_check,
)
from .haar import (
    HaarSystem,
    haar_decompose,
    reconstruct,
    paraproduct_plus,
    product_identity_residual,
)
from .tb import (
    CarlesonField,
    carleson_norm,
    CanonicalFamily,
    verify_hypotheses,
    tb_run,
)
from .rrt import (
    RrtInstance,
    hypothesis_margin,
    conclusion_value,
    worst_case_search,
    delta_of_eps_curve,
)
from .harness import WeightGenerator, generate, inclusion_search
from .config import RunConfig

__version__ = "0.1.0"
