"""Every name a gtl module imports is used in that module, and the package
exports exactly its documented names.

Package `__init__.py` files are skipped by the import check (their imports
are re-exports), and so are `__future__` imports.
"""

import ast
from pathlib import Path

import gtl

SRC = Path(__file__).resolve().parent.parent / "src" / "gtl"


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [msg for p in modules for msg in unused_imports(p)] == []


PUBLIC = """
    Always And Atom Bound ClassifierResult Dfa EdgeAtom Eventually Exists FALSE FalseF
    Formula GraphTemporalTrajectory GtlError IdentifyReport Implies InfeasibleError
    InfoGainReport InputError LabeledGraph Not Or OutOfScopeError Param ParamSpec
    ParseError PriorModel PsoConfig RangeError SwarmScenario TRUE Template
    TemplateResult TrueF Until UsageError builtin_templates classify_subtype compute_ig
    coverage default_box desugar extract_aps formula_size free_parameters gen_planted
    gen_swarm identify infer_classifier instantiate is_ground label_word load_graph
    load_prior load_templates load_trajectories map_pi map_pi_inv misclassification_rate
    nnf parse polarity print_formula pso_minimize_mr rename_parameters sample_prior sat
    sat_table satisfaction_probability save_templates save_trajectories swarm_constraint
    to_dfa
""".split()


def test_public_surface_is_pinned():
    # a change to the public API has to edit this list on purpose
    assert sorted(gtl.__all__) == sorted(PUBLIC)
