"""Survey problem-token selection and display-order analysis toolkit.

The public names are imported from their modules on first access (PEP
562, module `__getattr__`), so that `import toksel`, or a command that
runs one stage, loads only the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each module's public names, as `toksel.<name>` gives them.
_EXPORTS = {
    "abtest": ("AbTestReport", "ProportionComparison", "compare_proportions", "run_abtest"),
    "dataset": (
        "Dataset",
        "PatternTable",
        "Token",
        "TokenCatalog",
        "filter_dataset",
        "load_dataset",
        "save_dataset",
    ),
    "errors": ("CapacityError", "DataError", "ParameterError", "SchemaError", "UndefinedStatisticError"),
    "evaluation": (
        "EvalReport",
        "ForestScorer",
        "SplitPlan",
        "auc",
        "evaluate_subsets",
        "jaccard",
        "jaccard_set",
    ),
    "infotheory": (
        "AuditReport",
        "audit_monotonicity",
        "audit_submodularity",
        "cell_counts",
        "entropy",
        "information_gain",
        "pc_entropy",
    ),
    "selection": (
        "SelectionStep",
        "SelectionTrace",
        "select_auc_greedy",
        "select_exhaustive",
        "select_random",
        "select_rits",
        "select_rits_lazy",
    ),
    "synthgen": (
        "GeneratorConfig",
        "LatentCause",
        "PresentationConfig",
        "apply_presentation",
        "demo_dataset",
        "demo_experiment_config",
        "demo_generator_config",
        "generate_truth",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the modules themselves are public too, as they were when imported here eagerly
__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:  # importing a module binds it here
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
