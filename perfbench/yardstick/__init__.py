"""Information measures on convex state spaces.

Classical probability vectors, quantum density operators and polytopic
generalized models share one entropy interface here: an entropic pair
(h, phi) applied to a distribution, a spectrum or a generalized spectrum,
together with the majorization order those entropies reverse.
"""

from .composites import (
    JointState,
    ProductSpace,
    classical_collapse_check,
    classify_joint,
    is_separable,
    max_tensor_member,
    min_tensor_vertices,
    pr_box,
    product_state,
    separable_witness,
)
from .convex_kernel import (
    Constraint,
    LinearProgram,
    LpResult,
    Polytope,
    lp_solve,
    membership,
    topk_weight_max,
)
from .entropic import (
    EntropicPair,
    classical_entropy,
    entropy_upper_bound,
    make_preset,
    pair_from_grid_descriptor,
    pair_from_spec,
)
from .gpt_models import (
    Frame,
    GptEffect,
    GptState,
    StateSpace,
    build_model,
    enumerate_frames,
    evaluate,
    load_model,
    make_effect,
    make_state,
    mix_state,
    model_from_json,
    perfectly_distinguishable,
    restrict_to_frame,
    unit_effect,
    vertex_state,
    zero_effect,
)
from .probvec import ProbVector, majorizes, normalize, sort_desc
from .quantum import (
    DensityMatrix,
    Ensemble,
    Povm,
    accessible_info_estimate,
    born_probabilities,
    eigen_spectrum,
    holevo_chi,
    mutual_information,
    quantum_entropy,
    quantum_entropy_min_search,
    quantum_majorizes,
)
from .spectra import (
    NoMajorant,
    PhiMixture,
    SpectralDecomposition,
    apply_phi,
    decomposition_constraints,
    frame_entropy,
    generalized_majorizes,
    generalized_spectrum,
    spectral_entropy,
)

__version__ = "0.1.0"
