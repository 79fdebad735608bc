"""Factorized neural interaction tensors and the tangent spectral law.

The package has three legs:

* factorized models of symmetric interaction tensors across molecular
  geometries (``tensors``, ``nn``, ``heads``, ``training``),
* spectral comparison of the learned bare/effective kernels and a
  tangent law for their eigenvalue ratios (``spectral``, ``tanmodel``),
* an exact block-decoupling laboratory for small Hermitian matrices
  that ties the tangent picture to unitary downfolding (``suzuki``),

plus a synthetic data generator with planted ground truth (``synth``),
named presets (``presets``) and a command-line interface (``cli``).
"""

__version__ = "0.1.0"

from .heads import (  # noqa: F401
    HeadKind,
    KernelMatrix,
    eval_bare_two,
    eval_eff_two,
    eval_one,
    sym_bilinear,
)
from .nn import AdamState, OrbitalNet, adam_step, cosine_lr  # noqa: F401
from .spectral import (  # noqa: F401
    AlignmentReport,
    DifferenceTable,
    EigenSystem,
    align_eigensystems,
    eig_sym,
    eigen_differences,
)
from .suzuki import (  # noqa: F401
    Generator,
    SuzukiProblem,
    WIdentityReport,
    build_generator,
    random_coupled_problem,
    tanh_coefficients,
    verify_w_identities,
    verify_w_identity,
    z_tanh_closed,
    z_tanh_series,
)
from .synth import PlantResult, PlantSpec, plant_series, save_plant  # noqa: F401
from .tanmodel import TanFit, eval_tan, fit_tan  # noqa: F401
from .tensors import (  # noqa: F401
    GeometrySeries,
    Kind,
    Symmetry,
    SymmetryViolationError,
    TensorFormatError,
    TensorSet,
    canonical_index,
    load_canonical,
    load_fcidump,
    load_series,
    nonsymmetric_unit,
    one_body_unit,
    save_canonical,
    save_series,
)
from .training import (  # noqa: F401
    FitReport,
    GeometryMAE,
    InteractionModel,
    TrainConfig,
    evaluate_mae,
    finetune_effective,
    load_model,
    save_model,
    train_bare,
)
