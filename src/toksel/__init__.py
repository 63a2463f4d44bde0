"""Survey problem-token selection and display-order analysis toolkit."""

__version__ = "0.1.0"

from .abtest import AbTestReport, ProportionComparison, compare_proportions, run_abtest
from .dataset import (
    Dataset,
    PatternTable,
    ResponseRecord,
    Token,
    TokenCatalog,
    filter_dataset,
    label_pc,
    load_dataset,
    save_dataset,
)
from .errors import (
    CapacityError,
    DataError,
    ParameterError,
    SchemaError,
    UndefinedStatisticError,
)
from .evaluation import (
    EvalReport,
    ForestScorer,
    SplitPlan,
    TableScorer,
    auc,
    evaluate_subsets,
    jaccard,
    jaccard_set,
)
from .infotheory import (
    AuditReport,
    audit_monotonicity,
    audit_submodularity,
    cell_counts,
    entropy,
    information_gain,
    pc_entropy,
)
from .selection import (
    SelectionStep,
    SelectionTrace,
    select_auc_greedy,
    select_exhaustive,
    select_random,
    select_rits,
    select_rits_lazy,
)
from .synthgen import (
    GeneratorConfig,
    LatentCause,
    PresentationConfig,
    apply_presentation,
    demo_dataset,
    demo_experiment_config,
    demo_generator_config,
    generate_truth,
)

__all__ = [name for name in dir() if not name.startswith("_")]
