"""The boundary between certification code and the code that checks it, read
from the source with ``ast``.

An oracle that calls the formula it checks cannot catch an error in it, so
``oracles`` takes no function from the certification modules; their types,
``X``/``Z`` and constants are shared vocabulary. The certification modules in
turn import nothing from the oracles, the simulator, the optimizer or the
validation suites, so that certifying counts never loads them. No module
calls the builtin ``sum``, whose float result changes with Python 3.12.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import corrbb84

PACKAGE = Path(corrbb84.__file__).parent
CERTIFICATION = ("concentration", "correlations", "counts", "decoy", "keyrate", "model",
                 "phase_error")
CHECKED_BY_ORACLES = ("concentration", "correlations", "decoy", "keyrate", "phase_error")
NOT_FOR_CERTIFICATION = ("oracles", "simulator", "optimizer", "validation")


def _runtime_imports(path: Path) -> list[tuple[str, str | None]]:
    """(package module, name) for every import of a ``corrbb84`` module that
    runs at import or call time; name is None where the whole module is
    imported. Imports under ``if TYPE_CHECKING:`` never run and are left out."""
    found = []

    def visit(node):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 or module == "corrbb84" or module.startswith("corrbb84."):
                sibling = module[len("corrbb84."):] if node.level == 0 else module
                found.extend((sibling, alias.name) if sibling else (alias.name, None)
                             for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((alias.name[len("corrbb84."):], None) for alias in node.names
                         if alias.name.startswith("corrbb84."))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text()))
    return found


def test_package_names_outside_certification_load_on_first_access(monkeypatch):
    from corrbb84 import simulator
    monkeypatch.delitem(vars(corrbb84), "ChannelModel", raising=False)
    assert corrbb84.ChannelModel is simulator.ChannelModel
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        corrbb84.nope


def test_oracles_take_no_function_from_the_modules_they_check():
    taken = []
    for source, name in _runtime_imports(PACKAGE / "oracles.py"):
        if source.split(".")[0] not in CHECKED_BY_ORACLES:
            continue
        value = None if name is None else getattr(
            importlib.import_module(f"corrbb84.{source}"), name)
        if name is None or callable(value) and not inspect.isclass(value):
            taken.append(f"{source}.{name or '*'}")
    assert taken == []


@pytest.mark.parametrize("module", CERTIFICATION)
def test_certification_imports_no_checking_code(module):
    imported = [f"{source}.{name or '*'}"
                for source, name in _runtime_imports(PACKAGE / f"{module}.py")
                if source.split(".")[0] in NOT_FOR_CERTIFICATION]
    assert imported == []


def test_boundary_reader_sees_every_import_form(tmp_path):
    source = (
        "from typing import TYPE_CHECKING\n"
        "import math\n"
        "from . import oracles\n"
        "from .simulator import sample_counts\n"
        "from corrbb84.optimizer import optimize_params\n"
        "import corrbb84.validation\n"
        "if TYPE_CHECKING:\n"
        "    from .oracles import ExplicitDeltas\n"
        "def late():\n"
        "    from .correlations import tail_sum\n"
    )
    (tmp_path / "probe.py").write_text(source)
    assert _runtime_imports(tmp_path / "probe.py") == [
        ("oracles", None), ("simulator", "sample_counts"), ("optimizer", "optimize_params"),
        ("validation", None), ("correlations", "tail_sum"),
    ]


def test_no_module_calls_the_builtin_sum():
    """Python 3.12's ``sum()`` compensates float rounding, so a float sum
    written with it would change certified values and reports from one
    interpreter to the next; the package adds left to right instead.
    ``array.sum()`` is a method and is not the builtin."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "sum"]
    assert found == []
