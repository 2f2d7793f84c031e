"""Graph temporal logic: evaluation, automata, inference, and data generation."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    GtlError, InfeasibleError, InputError, OutOfScopeError, ParseError,
    RangeError, UsageError,
)
from .formula import (
    Always, And, Atom, Bound, EdgeAtom, Eventually, Exists, FALSE, FalseF,
    Formula, Implies, Not, Or, Param, TRUE, TrueF, Until, classify_subtype,
    desugar, formula_size, free_parameters, instantiate, is_ground, nnf,
    parse, polarity, print_formula, rename_parameters,
)
from .graph import (
    GraphTemporalTrajectory, LabeledGraph, load_graph, load_trajectories, save_trajectories,
)
from .semantics import coverage, misclassification_rate, sat, sat_table
from .automata import Dfa, extract_aps, label_word, to_dfa
from .prior import (
    InfoGainReport, PriorModel, compute_ig, load_prior, satisfaction_probability,
)
from .identify import IdentifyReport, TemplateResult, identify, map_pi, map_pi_inv
from .classify import ClassifierResult, PsoConfig, infer_classifier, pso_minimize_mr
from .templates import (
    ParamSpec, Template, builtin_templates, default_box, load_templates,
    save_templates,
)
from .datagen import (
    SwarmScenario, gen_planted, gen_swarm, sample_prior, swarm_constraint,
)

# names only: the submodules that the imports above bind are not part of the list
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
