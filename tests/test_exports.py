"""Export lists: every name a module advertises exists, the package exports
exactly the union of its modules' lists, and the package or the benchmark
reads each one."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import adarc

MODULES = ["adarc"] + [f"adarc.{info.name}" for info in pkgutil.iter_modules(adarc.__path__)]
#: The modules whose ``__all__`` the package re-exports, in order; ``cli`` is
#: the command line, not library API.
LIBRARY_MODULES = [importlib.import_module(m) for m in MODULES[1:] if m != "adarc.cli"]

#: The package exports of 0.2.0: those of 0.1.0 less ``node_homophily``,
#: ``build_scenario_datasets``, ``classify``, ``gap_decomposition`` and
#: ``representation_distribution``, which only tests read. None may go.
EARLIER_EXPORTS = (
    "__version__ AdaptConfig AdaptResult AdaptationDivergedError adapt convergence_report "
    "CsbmParams PRESETS edge_probs generate preset_params attach_split_masks "
    "BACKEND Graph Dataset PropagationOperator build_graph "
    "ScenarioSpec ExperimentReport GapDecomposition scenario_seeds "
    "run_scenario sweep fit_linear_head decompose_gap "
    "FormatError read_dataset write_dataset write_json_report "
    "LOSS_KINDS DegenerateRepresentationError surrogate_loss_and_grad_gamma "
    "EpochRecord GprModel HopCache SoftPrediction StaleCacheError init_model "
    "featurize_hops aggregate softmax prediction_accuracy save_checkpoint "
    "load_checkpoint TrainConfig TrainDivergedError train_source pretrain_on "
    "TheoryPoint AttributeShiftAccuracy "
    "closed_form_accuracy optimal_gamma attribute_shift_accuracy "
    "monte_carlo_accuracy BaseTtaKind base_predict"
).split()


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"


def test_package_exports_the_modules_lists_in_order():
    expected = ["__version__"] + [n for m in LIBRARY_MODULES for n in m.__all__]
    assert adarc.__all__ == expected


def test_no_name_is_declared_by_two_modules():
    counts = Counter(n for m in LIBRARY_MODULES for n in m.__all__)
    assert [n for n, c in counts.items() if c > 1] == []


def test_each_package_export_is_the_modules_own_object():
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(adarc, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_no_earlier_export_is_dropped():
    assert len(EARLIER_EXPORTS) == 56
    assert [n for n in EARLIER_EXPORTS if n not in adarc.__all__] == []


def _names_read(paths) -> set[str]:
    """Every name, attribute and imported name in the Python files ``paths``."""
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                seen.update(alias.name for alias in node.names)
    return seen


def _package_and_bench_files() -> list[Path]:
    bench = sorted(Path(__file__).resolve().parents[1].joinpath("perfbench").glob("*.py"))
    assert bench, "perfbench/*.py not found"
    return [*sorted(Path(adarc.__file__).parent.glob("*.py")), *bench]


def test_every_export_is_read_by_the_package_or_perfbench():
    # An export that only tests read is dead API: each name must appear as a
    # name, an attribute or an import in the package or the benchmark.
    seen = _names_read(_package_and_bench_files())
    assert [n for n in adarc.__all__ if n not in seen] == []


def test_every_later_export_is_read_outside_its_module():
    # A name its own module reads is still dead API if nothing else does; the
    # 0.2.0 exports stay whoever reads them.
    files = _package_and_bench_files()
    unread = []
    for module in LIBRARY_MODULES:
        own = Path(module.__file__).resolve()
        seen = _names_read(p for p in files if p.resolve() != own)
        unread += [
            f"{module.__name__}.{n}"
            for n in module.__all__
            if n not in EARLIER_EXPORTS and n not in seen
        ]
    assert unread == []
