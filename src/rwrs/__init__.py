"""Simulation and verification toolkit for sequential empirical processes
of random walks in random scenery."""

__version__ = "0.1.0"

from .randomness import (  # noqa: F401
    Alpha,
    IncrementLaw,
    LawKind,
    SeedScheme,
    StreamKind,
    derive_site_value,
    sample_increments,
    stable_standard_sample,
    stream_generator,
)
from .walk import (  # noqa: F401
    EmpiricalSheet,
    GridSpec,
    OccupationMap,
    WalkPath,
    empirical_sheet,
    occupation_map,
    occupation_quadratic,
    occupation_statistic,
    rescale,
    rescale_factor,
    simulate_walk,
    walk_from_steps,
)
from .limit import (  # noqa: F401
    KieferIncrements,
    LevyPath,
    LimitSheet,
    LocalTimeField,
    default_cell_width,
    kiefer_increments,
    levy_from_values,
    limit_sheet,
    local_time_field,
    local_time_quadratic,
    simulate_levy_path,
)
from .diagnostics import (  # noqa: F401
    ComparisonReport,
    LimitConfig,
    SampleSet,
    SlopeFit,
    bickel_wichura_modulus,
    holder_norm_estimate,
    moment_scaling,
    self_similarity_factor,
    self_similarity_test,
    structure_function,
    two_sample_distance,
    verify_fdd,
    verify_lemma1,
)
from .config import (  # noqa: F401
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    config_hash,
    parse_config,
    serialize_config,
)
from .runner import RunManifest, run_experiment  # noqa: F401
