"""Every public function, class and method of a layer is something the
commands, the benchmark or the README use, and no module imports a name it never uses.  No
linter ships with the tool chain, so these two checks read the sources with
`ast`.  A process also
pays for what it imports and computes but never reads: the last checks
guard start-up and the repeated work of the report battery."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from cotwist import presets

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cotwist"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree):
    """Every identifier a module reads: names, attribute names and the names
    it imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def _readme_names():
    """The identifiers inside backtick spans of the README."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return {name for span in re.findall(r"`([^`\n]+)`", text)
            for name in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", span)}


def _public_definitions(tree):
    """The public functions and classes a module defines at module level,
    and the public methods of those classes."""
    names = set()
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names |= _public_definitions(node)
    return names


def test_every_exported_name_is_used_or_documented():
    # a name's own definition is a def or class statement, not a read
    layers = sorted(PACKAGE.glob("*.py"))
    sources = layers + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_used_names(_tree(p)) for p in sources))
    documented = _readme_names()
    defined = set().union(*(_public_definitions(_tree(p)) for p in layers))
    unused = sorted(name for name in defined
                    if name not in used and name not in documented)
    assert unused == []


def _module_imports(tree):
    """(bound name, line) of every import at module level, including the
    blocks of a module-level `if` such as `if TYPE_CHECKING:`."""
    statements = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If):
            statements += node.body + node.orelse
    out = []
    for node in statements:
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno)
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _module_imports(tree) if name not in read]
    assert unused == []


def test_layers_import_neither_dataclasses_nor_fractions():
    # a dataclass generates its methods with `exec` when its module loads,
    # `dataclasses` itself imports `inspect` and `ast`, and `fractions`
    # `decimal`; `report` loads no action code, which only a spec reads
    script = ("import sys, cotwist.cli, cotwist.presets\n"
              "print('cotwist.action' in sys.modules)\n"
              "import cotwist.action, cotwist.twist\n"
              "print(*sorted({'dataclasses', 'fractions'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         check=True, capture_output=True, text=True,
                         timeout=60).stdout
    assert out == "False\n\n"


def test_regularity_agreement_checks_each_presentation_once(monkeypatch):
    # the twist maps the 8 presets onto one another, so 8 distinct
    # presentations of 3 generators each are checked, not 16
    real, calls = presets.is_regular_to_degree, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(presets, "is_regular_to_degree", counted)
    section = presets._regularity_agreement(6)
    assert len(calls) == 24
    golden = json.loads((ROOT / "tests" / "golden" / "report.json").read_text())
    assert section == golden["regularity_agreement"]
