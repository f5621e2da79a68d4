"""Imports: every module-level import in the package is used by its module,
only `grid.py` names `SpectralField`, every top-level definition is reached
from a run, and a CLI run loads no module it does not need (`numpy.ma`,
`subprocess`).

No linter ships with the project, so the first checks parse each module with
`ast`: a name bound by a top-level `import` or `from ... import` must appear
as a name somewhere in the module (`__init__.py` re-exports by importing, so
it is left out of that one).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spdolab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_detects_an_unused_import():
    source = "import math\nfrom typing import Sequence, Callable\nf: Callable = math.sin\n"
    assert unused_imports(source) == ["Sequence"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(module):
    assert unused_imports(module.read_text()) == []


def named(*trees: ast.AST, strings: bool = False) -> set[str]:
    """Every identifier the trees name: variables, attributes, imported names
    and defined classes; with `strings`, string constants that are
    identifiers too (the benchmark's tracer patches functions by name)."""
    names = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.ClassDef):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            names.add(node.asname)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_detects_a_named_class():
    assert "SpectralField" in named(ast.parse("from .grid import SpectralField as F\n"))
    assert "SpectralField" in named(ast.parse("from . import grid\nf = grid.SpectralField\n"))
    assert "SpectralField" not in named(ast.parse('"""A SpectralField in a docstring."""\n'))


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_grid_names_spectral_field(module):
    # every other module holds a field as its coefficient array
    assert ("SpectralField" in named(ast.parse(module.read_text()))) == (module.name == "grid.py")


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# The manufactured-solution check of the companion reduction (ROADMAP item
# 10). Only tests reach it, until `reduce` runs it or it is deleted.
ITEM_10_SCAFFOLD = {"ManufacturedSolution", "sine_profile", "exponential_profile",
                    "exact_companion_state", "companion_symbol", "reduction_consistency_check"}


def reached(sources: list[str], roots: set[str]) -> tuple[set[str], set[str]]:
    """(top-level definitions of the modules, those reached from `roots` or
    from their module-level statements). Imports are not uses, and a
    definition is matched by name alone, so a name shared by two modules
    reaches both."""
    trees = [ast.parse(source) for source in sources]
    defs: dict[str, list[ast.AST]] = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                defs.setdefault(node.name, []).append(node)
    statements = [node for tree in trees for node in tree.body
                  if not isinstance(node, DEFINITIONS + (ast.Import, ast.ImportFrom))]
    seen: set[str] = set()
    todo = [name for name in roots | named(*statements) if name in defs]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(n for n in named(*defs[name]) if n in defs and n not in seen)
    return set(defs), seen


def test_detects_an_unreached_definition():
    registry = "def used():\n    return helper()\n\ndef helper():\n    pass\n\nRUN = {'x': used}\n"
    entry = "from .a import orphan\n\ndef main():\n    pass\n\ndef orphan():\n    pass\n"
    defs, seen = reached([registry, entry], {"main"})
    assert defs - seen == {"orphan"}


def test_every_definition_is_reached_from_a_run():
    # runs start at the CLI's main, the package's module-level statements
    # (the runner and catalog registries), scripts/ and perfbench/
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    outside = [ast.parse(p.read_text()) for folder in ("scripts", "perfbench")
               for p in sorted((ROOT / folder).glob("*.py"))]
    defs, seen = reached(package, {"main"} | named(*outside, strings=True))
    assert not ITEM_10_SCAFFOLD & seen, "a run reaches item 10's scaffold: shrink the list"
    _, scaffold = reached(package, ITEM_10_SCAFFOLD)
    assert sorted(defs - seen - scaffold) == []


# every shipped config through the CLI in one fresh interpreter, which then
# prints the names of the modules it loaded
SHIPPED_RUNS = """
import json
import sys
from pathlib import Path
from spdolab.cli import main
from spdolab.config import parse_config
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
for cfg in sorted(configs.glob("*.cfg")):
    command = parse_config(str(cfg)).command
    assert main([command, "--config", str(cfg), "--out", str(out / cfg.stem)]) in (0, 1), cfg
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def shipped_run_modules(tmp_path_factory):
    out = tmp_path_factory.mktemp("shipped")
    src = str(PACKAGE.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SHIPPED_RUNS, str(ROOT / "configs"), str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    shipped = list((ROOT / "configs").glob("*.cfg"))
    assert shipped and len(list(out.glob("*/report.json"))) == len(shipped)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_shipped_configs_do_not_import_numpy_ma(shipped_run_modules):
    # np.unique imports numpy.ma on its first call, 10-17 ms per process
    assert "spdolab.cli" in shipped_run_modules
    assert "numpy.ma" not in shipped_run_modules


def test_shipped_configs_do_not_import_subprocess(shipped_run_modules):
    # platform.platform() reads uname().processor, which imports subprocess
    # and runs `uname -p`: 6-11 ms per process
    assert "subprocess" not in shipped_run_modules
