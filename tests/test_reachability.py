"""Every public top-level function and class of ``fk_saddle`` is used by the
package itself, not only exported and tested.

A name counts as reached when some module other than ``__init__.py`` refers
to it (as a bare name or as an attribute).  The check reads the sources with
``ast``; it imports nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fk_saddle"

# names no module refers to, each kept on purpose
ALLOWED = {
    "PluginPotential": "the base class that plug-in models subclass",
    "format_config": "the canonical job-file writer, the inverse of parse_config",
    "bound_scan_hetero": "the paper's heteroclinic barrier column; no command runs it yet",
}


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
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined - used


def test_every_public_name_is_reached():
    names = unreached(SRC)
    assert names - set(ALLOWED) == set(), \
        "reached only from tests (use them in a pipeline or delete them)"
    # an allowance for a name that is gone or now reached is stale
    assert set(ALLOWED) <= names
