"""Exact absorbing Markov chain analytics for the four-step
Retrieve/Reuse/Revise/Retain problem-solving cycle.

The package has four layers:

* :mod:`cbrchain.markov`: a general finite-chain engine over exact
  rationals (validation, classification, evolution, canonical form,
  fundamental matrix, absorption statistics);
* :mod:`cbrchain.cbr`: the specific 4-state process chain, its closed
  forms, trajectory validation, and maximum-likelihood estimation;
* :mod:`cbrchain.library`: case-library efficiency over
  generalized-episode hierarchies, with JSON ingestion;
* :mod:`cbrchain.simulate`: seeded, reproducible Monte Carlo sampling
  that cross-validates the exact results.

The ``cbrchain`` command-line tool exposes all of it.

Importing the package runs none of its layers. Each public name below
runs the layer that defines it on first use (PEP 562), and so does each
layer's name, so that ``cbrchain.markov`` and ``from cbrchain import *``
work after ``import cbrchain`` alone.
"""

__version__ = "0.1.0"

#: The truncation guard of a simulated walk when none is given: the default
#: of ``SimulationConfig.max_phases`` and of ``cbr-simulate --max-phases``.
DEFAULT_MAX_PHASES = 10**6

# The public names of each layer.
_EXPORTS = {
    "cbr": (
        "CbrParameters",
        "Trajectory",
        "cbr_transition_matrix",
        "count_r3_exits",
        "estimate_parameters",
        "format_trajectories",
        "mean_phases",
        "parse_trajectories",
        "phase_distribution",
        "read_trajectories",
        "trajectory_step_count",
        "validate_trajectory",
    ),
    "errors": ("CbrChainError",),
    "library": (
        "CaseLibrary",
        "CaseRecord",
        "EfficiencyReport",
        "GeneralizedEpisode",
        "case_measure",
        "dumps_library",
        "efficiency_report",
        "efficiency_trend",
        "library_to_dict",
        "load_library",
        "loads_library",
        "save_library",
    ),
    "markov": (
        "CanonicalChain",
        "ProbabilityVector",
        "StateClassification",
        "TransitionMatrix",
        "absorption_probabilities",
        "canonical_form",
        "classify_states",
        "distribution_at",
        "evolve",
        "expected_absorption_steps",
        "fundamental_matrix",
        "invert_matrix",
        "step_distribution",
        "validate_stochastic",
    ),
    "rationals": ("decimal_str", "format_rational", "parse_rational"),
    "simulate": (
        "SimulationConfig",
        "SimulationReport",
        "derive_trajectory_seed",
        "iter_trajectories",
        "run_simulation",
        "sample_trajectory",
    ),
}

# Each public name, and each layer's own name, to its layer.
_LAYER_OF = {
    **{name: layer for layer, names in _EXPORTS.items() for name in names},
    **{layer: layer for layer in _EXPORTS},
}

__all__ = list(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ with a fromlist gives the layer itself. Unlike
    # importlib.import_module on Python 3.10, it reads the __spec__ of a layer
    # already in sys.modules, and so runs one that cli registered to run on
    # first use (cbrchain._deferred).
    module = __import__(f"{__name__}.{layer}", fromlist=["_"])
    return module if name == layer else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

