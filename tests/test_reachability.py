"""Every public top-level function and class of ``fk_saddle`` is used by the
package itself, not only exported and tested.

A name counts as reached when some module other than ``__init__.py`` refers
to it as a bare name or as an attribute of an imported module.  An attribute
of anything else (``u.shift(...)`` on a local ``u``) is a method or a field
of some object and does not reach a module-level name of the same spelling.
The check reads the sources with ``ast``; it imports nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fk_saddle"

# names no module refers to, each kept on purpose
ALLOWED = {
    "PluginPotential": "the base class that plug-in models subclass",
    "format_config": "the canonical job-file writer, the inverse of parse_config",
}


def _modules(tree: ast.Module, src: Path) -> set:
    """Names ``tree`` binds to modules: ``import m [as a]``, and
    ``from . import m`` for a sibling module ``m.py`` of ``src``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            names.update(a.asname or a.name for a in node.names
                         if (src / (a.name + ".py")).exists())
    return names


def unreached(src: Path) -> set:
    """Public top-level names defined in ``src`` that no module other than
    ``__init__.py`` refers to."""
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))
             if p.name != "__init__.py"}
    defined = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = set()
    for tree in trees.values():
        modules = _modules(tree, src)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                used.add(node.attr)
    return defined - used


def test_every_public_name_is_reached():
    names = unreached(SRC)
    assert names - set(ALLOWED) == set(), \
        "reached only from tests (use them in a pipeline or delete them)"
    # an allowance for a name that is gone or now reached is stale
    assert set(ALLOWED) <= names


def test_an_attribute_of_an_object_does_not_reach_a_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "def shift(u):\n    return u.shift(1)\n\n"
        "def solve(x):\n    return x\n\n"
        "def extend(u):\n    return u\n")
    (tmp_path / "b.py").write_text(
        "import a\nfrom . import a as alias\n\n"
        "def run(obj):\n    return a.solve(obj) + alias.extend(obj) + obj.shift(2)\n")
    # ``shift`` is reached only as ``u.shift`` and ``obj.shift``
    assert unreached(tmp_path) == {"shift", "run"}
