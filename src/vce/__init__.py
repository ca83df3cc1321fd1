"""Variational causal effects on finite structural equation models.

Exact engine plus CLI for the PACE family of direct causal effect measures
(PACE/PEACE/SPACE/APACE with signed and degree-parameterized forms), the
usual comparison baselines, counterfactual abduction, and observational
plug-in estimators, all over a small text format for models (`.sem`).
"""

from .baselines import (
    ace,
    acde,
    ande,
    cace,
    cmi_strength,
    ipwe,
    janzing_strength,
    mi_strength,
)
from .counterfactual import Evidence, abduct, counterfactual_query
from .dsl import parse_model, serialize_model
from .engine import (
    Distribution,
    build_joint,
    cond_entropy,
    conditional,
    conditional_mutual_information,
    entropy,
    expectation,
    expectation_under,
    intervene,
    interventional_means,
    kl_divergence,
    marginal,
    mutual_information,
    sample,
)
from .errors import ParseError, VceError
from .estimation import (
    Dataset,
    covariate_weighted_effect,
    estimate_conditionals,
    identifiable_effect,
)
from .model import (
    CPT,
    Deterministic,
    FiniteSupport,
    Model,
    Parameter,
    Partition,
    Root,
    Variable,
    bind,
    validate,
)
from .rewrites import cpt_to_noise, eliminate_mediator
from .variational import (
    EffectQuery,
    EffectReport,
    ace_flavored_effect,
    apiv,
    brute_force_piv,
    degree_grid,
    effect,
    g_in,
    matrix_form_piev,
    natural_availability,
    pace_vector,
    piev,
    piv,
    spiv,
    weight,
)

__version__ = "0.1.0"

__all__ = [
    "CPT",
    "Dataset",
    "Deterministic",
    "Distribution",
    "EffectQuery",
    "EffectReport",
    "Evidence",
    "FiniteSupport",
    "Model",
    "Parameter",
    "ParseError",
    "Partition",
    "Root",
    "Variable",
    "VceError",
    "abduct",
    "ace",
    "ace_flavored_effect",
    "acde",
    "ande",
    "apiv",
    "bind",
    "brute_force_piv",
    "build_joint",
    "cace",
    "cmi_strength",
    "cond_entropy",
    "conditional",
    "conditional_mutual_information",
    "counterfactual_query",
    "covariate_weighted_effect",
    "cpt_to_noise",
    "degree_grid",
    "effect",
    "eliminate_mediator",
    "entropy",
    "estimate_conditionals",
    "expectation",
    "expectation_under",
    "g_in",
    "identifiable_effect",
    "intervene",
    "interventional_means",
    "ipwe",
    "janzing_strength",
    "kl_divergence",
    "marginal",
    "matrix_form_piev",
    "mi_strength",
    "mutual_information",
    "natural_availability",
    "pace_vector",
    "parse_model",
    "piev",
    "piv",
    "sample",
    "serialize_model",
    "spiv",
    "validate",
    "weight",
]
