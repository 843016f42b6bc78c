"""The public surface: each module's ``__all__``, the package re-exports and the version, the
library names the README cites, the private names that the CLI reads, the one phase-to-RDE rule and
its one seam snap."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import qpd_rde
from qpd_rde import cli, errors, ewl, game_core, quantum_rde, risk_dominance

PUBLIC = {
    game_core: [
        "DilemmaParams", "StrategyProfile", "PayoffMatrix2x2", "DilemmaKind", "DilemmaClass",
        "NashEquilibriumRecord", "build_dilemma_matrix", "classify_dilemma",
        "expected_payoff_classical", "enumerate_pure_ne", "verify_mixed_ne",
    ],
    risk_dominance: [
        "DeviationLossPair", "RdeOutcome", "deviation_losses_symmetric",
        "deviation_losses_asymmetric", "select_rde_symmetric", "select_rde_asymmetric",
        "rde_chicken", "rde_staghunt",
    ],
    ewl: [
        "JointDistribution", "QuantumPayoffMatrix", "PhaseThresholds", "Phase", "QuantumNeReport",
        "initial_state", "strategy_operator", "entangling_gate", "final_state",
        "joint_distribution", "expected_payoff_quantum", "pure_quantum_matrix", "thresholds",
        "resolve_phase", "classify_quantum_ne", "pure_ne", "grid_best_response_gain",
    ],
    quantum_rde: [
        "RdeReport", "SituRisk", "SensitivityReport", "CriticalAngles", "situ_risk_transitional",
        "situ_risk_coexistence", "select_rde_quantum", "select_rde", "transitional_mixing_probability",
        "sensitivity_partials", "sensitivity_critical_angles", "sensitivity_indices",
        "group_benefit_threshold", "unilateral_deviation_payoffs",
    ],
}


@pytest.mark.parametrize("module", PUBLIC, ids=lambda module: module.__name__)
def test_module_all_is_pinned_and_reexported(module):
    assert module.__all__ == PUBLIC[module]
    for name in module.__all__:
        assert getattr(qpd_rde, name) is getattr(module, name), name


@pytest.mark.parametrize("module", PUBLIC, ids=lambda module: module.__name__)
def test_module_all_lists_every_public_function_and_class(module):
    # What makes the package's star re-export the whole surface.
    defined = {name for name, obj in vars(module).items()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__ and not name.startswith("_")}
    assert defined == set(module.__all__)


def test_version_agrees_with_pyproject():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.MULTILINE)
    assert qpd_rde.__version__ == version


# The one private library name the README may cite: ewl._resolved, whose cache_clear() empties the
# phase cache. The README is the user contract; each mechanism is described in its own code.
README_PRIVATE = {"ewl._resolved"}


def test_the_readme_cites_existing_names_and_no_private_one_but_the_pinned():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {module.__name__.rsplit(".", 1)[1]: module for module in [*PUBLIC, cli, errors]}
    cited = set(re.findall(rf"(?<![\w./])({'|'.join(modules)})\.(\w+)", text))
    assert ("ewl", "resolve_phase") in cited
    assert not sorted(f"{module}.{name}" for module, name in cited if not hasattr(modules[module], name))
    private = {f"{module}.{name}" for module, name in cited if re.match(r"_[^_]", name)}
    # A private name cited without its module, such as _side.
    private |= {name for name in re.findall(r"(?<![\w.])_[A-Za-z]\w*", text)
                if any(name in vars(module) for module in modules.values())}
    assert private == README_PRIVATE


# The private library names cli.py reads: the sweep's per-side helpers, which its scope reuse
# needs, its axis and gamma checks, and the oracle grid's paired points. The game decision of classify,
# ne, rde and tables is behind pure_ne and select_rde.
CLI_PRIVATE = {
    "ewl._check_gamma", "ewl._grid_pairs", "ewl._linspace", "ewl._pure_ne", "ewl._pure_payoffs",
    "ewl._runs", "quantum_rde._indices", "quantum_rde._on_band", "quantum_rde._select_rde",
}


def test_cli_reads_only_the_pinned_private_library_names():
    source = (Path(__file__).resolve().parents[1] / "src" / "qpd_rde" / "cli.py").read_text()
    modules = {module.__name__.rsplit(".", 1)[1] for module in PUBLIC}
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            read.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in modules:
            read.update(f"{node.module}.{alias.name}" for alias in node.names)
    read = {name for name in read if name.split(".")[0] in modules and name.split(".")[1].startswith("_")}
    assert read == CLI_PRIVATE
    assert len(read) <= 9
    assert not read & {"game_core._layout_ne", "risk_dominance._classical_rde",
                       "risk_dominance._layout_losses", "quantum_rde._KIND", "ewl._shift",
                       "ewl._joint", "ewl._grid_states"}


def test_one_phase_to_rde_rule():
    # _layout_rde has no seam option, and in quantum_rde only _select_rde, the phase-to-record rule,
    # and select_rde's classical branch, which classifies once for the RDE and the losses, read it.
    (layout,) = [node for node in ast.parse(Path(risk_dominance.__file__).read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_layout_rde"]
    assert "seam" not in {arg.arg for arg in [*layout.args.args, *layout.args.kwonlyargs]}
    tree = ast.parse(Path(quantum_rde.__file__).read_text())
    readers = [getattr(node, "name", None) for node in tree.body for sub in ast.walk(node)
               if isinstance(sub, ast.Name) and sub.id == "_layout_rde"]
    assert sorted(readers) == ["_select_rde", "_select_rde", "select_rde"]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (classical,) = [node for node in ast.walk(functions["select_rde"])
                    if isinstance(node, ast.If) and ast.unparse(node.test) == "gamma is None"]
    assert "_layout_rde" in {sub.id for stmt in classical.body for sub in ast.walk(stmt)
                             if isinstance(sub, ast.Name)}
    # _select_rde reads a phase name only as _KIND's key: no if-chain over the phases.
    names = [node for node in ast.walk(functions["_select_rde"])
             if isinstance(node, ast.Attribute) and node.attr == "name"]
    keys = [node.slice for node in ast.walk(functions["_select_rde"])
            if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "_KIND"]
    assert names == keys and len(keys) == 1


def test_one_seam_snap_and_one_chicken_weight():
    # In quantum_rde only _select_rde reads a phase's seam, so p*, the RDE and the sensitivity
    # report snap to a seam's pure record in one place; only risk_dominance names _chicken_weight.
    tree = ast.parse(Path(quantum_rde.__file__).read_text())
    readers = {node.name for node in tree.body for sub in ast.walk(node)
               if isinstance(sub, ast.Attribute) and sub.attr == "seam"}
    assert readers == {"_select_rde"}
    for path in Path(quantum_rde.__file__).parent.glob("*.py"):
        # Names, attributes, imported aliases and definitions.
        names = {value for node in ast.walk(ast.parse(path.read_text())) for value in
                 (getattr(node, field, None) for field in ("id", "attr", "name")) if isinstance(value, str)}
        assert ("_chicken_weight" in names) == (path.stem == "risk_dominance"), path.name


def test_every_library_name_perfbench_reads_exists():
    # perfbench/ is the benchmark's own code and is edited only with the benchmark, so a name it
    # reads (a public wrapper such as select_rde_quantum or rde_chicken included) must stay.
    modules = {module.__name__.rsplit(".", 1)[1]: module for module in [*PUBLIC, cli]}
    read = set()
    for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                read.add((modules[node.value.id], node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "qpd_rde.errors":
                read.update((errors, alias.name) for alias in node.names)
    assert {module for module, _ in read} == {*modules.values(), errors}
    missing = sorted(f"{module.__name__}.{name}" for module, name in read if not hasattr(module, name))
    assert not missing
