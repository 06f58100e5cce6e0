"""novascape: innovation scoring, type landscapes, and regression analysis
for corpora of products described by binary feature vectors."""

from . import errors
from .corpus import (
    FeatureRegistry,
    FilterConfig,
    FilterReport,
    Record,
    RecordSet,
    apply_filters,
    canonical_registry,
    load_registry,
    parse_records,
    write_records_csv,
)
from .metrics import (
    FeatureProfile,
    InnovationScores,
    ScoreTable,
    build_profile,
    distinctiveness,
    distinctiveness_fast,
    hamming,
    novelty_binary,
    novelty_count,
    read_scores_csv,
    resonance,
    score_corpus,
)
from .landscape import (
    Centroid,
    LandscapeGraph,
    TypeNode,
    build_landscape,
    centroids,
    classify_snapshots,
    export_graph,
    flip_edges,
    layout,
    pack_vector,
    render_svg,
)
from .stats import (
    FitResult,
    GroupTestResult,
    MarginalMean,
    ModelSpec,
    auc_effect,
    build_design,
    describe,
    fit_logistic,
    fit_model,
    fit_ols,
    fit_poisson,
    format_model_table,
    group_test_battery,
    join_scores,
    mann_whitney_u,
    marginal_means,
)
from .synth import SynthConfig, generate_corpus
from .cli import PipelineConfig, main

__version__ = "0.1.0"
