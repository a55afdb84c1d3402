"""Every public top-level function and class of ``fk_saddle``, and every
public method and property of its classes, is used by the package itself,
not only exported and tested.

A name counts as reached when some module other than ``__init__.py`` refers
to it as a bare name or as an attribute of an imported module.  An attribute
of anything else (``u.shift(...)`` on a local ``u``) is a method or a field
of some object and does not reach a module-level name of the same spelling.
A method or property ``Class.name`` counts as reached when some module
refers to ``name`` as an attribute of anything, its own class included.
The check reads the sources with ``ast``; it imports nothing.

Every ``RunConfig`` field, which is a job-file key, is read by some module
other than ``config.py``, so a solver option that loses its reader cannot
leave a dead key behind.

Every field of a dataclass is read, as an attribute of anything, by some
module other than ``__init__.py``: a record field that is only written,
echoed or read by tests goes.  Like the method check this goes by name.

Every defaulted parameter of a public module-level function is passed, by
position or by keyword, by some call in a module other than ``__init__.py``:
a knob that only tests turn is a second code path, and it goes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fk_saddle"

# names no module refers to, each kept on purpose
ALLOWED = {
    "PluginPotential": "the base class that plug-in models subclass",
    "format_config": "the canonical job-file writer, the inverse of parse_config",
}


# dataclass fields no module reads, each kept on purpose
FIELDS_ALLOWED = {
    "MinimaxResult.reparam_sweeps": "the benchmark's tracer counts a node-flow "
                                    "run's reparametrizations from it",
    "MinimaxResult.final_nodes": "tests check the chain an engine ends on: "
                                 "pinned ends and bit-for-bit reruns",
}


# defaulted parameters no call in the package passes, each kept on purpose
PARAMETERS_ALLOWED = {
    "main.argv": "the console script calls main() and it reads sys.argv",
    "minimize_hetero.check_stability": "cli._minimize_kink passes it through **kw",
}


def _trees(src: Path) -> dict:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))
            if p.name != "__init__.py"}


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


def _public(body, kinds) -> list:
    return [node for node in body
            if isinstance(node, kinds) and not node.name.startswith("_")]


def unreached(src: Path) -> set:
    """Public top-level names defined in ``src`` that no module other than
    ``__init__.py`` refers to, and public methods and properties, as
    ``Class.name``, whose name no such module uses as an attribute."""
    trees = _trees(src)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = {node.name for tree in trees.values()
               for node in _public(tree.body, functions + (ast.ClassDef,))}
    members = {(cls.name, node.name) for tree in trees.values()
               for cls in _public(tree.body, ast.ClassDef)
               for node in _public(cls.body, functions)}
    used, attributes = set(), set()
    for tree in trees.values():
        modules = _modules(tree, src)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    used.add(node.attr)
    return (defined - used) | {"%s.%s" % m for m in members if m[1] not in attributes}


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


def test_a_method_reached_only_from_tests_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    @property\n    def width(self):\n        return 1\n\n"
        "    def dense(self):\n        return 2\n\n"
        "    def solve(self):\n        return self.width\n\n"
        "    def _blocked(self):\n        return 3\n\n"
        "def run(box):\n    return Box, box.solve()\n")
    (tmp_path / "b.py").write_text("import a\n\nX = a.run\n")
    # a test calling ``box.dense()`` does not count; ``width`` is reached
    # from its own class, private names are not checked
    assert unreached(tmp_path) == {"Box.dense"}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in cls.decorator_list)


def unread_fields(src: Path) -> set:
    """``Class.field`` for each field of a dataclass defined in ``src`` whose
    name no module other than ``__init__.py`` loads as an attribute."""
    trees = _trees(src).values()
    fields = {(cls.name, node.target.id) for tree in trees for cls in tree.body
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for node in cls.body if isinstance(node, ast.AnnAssign)}
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {"%s.%s" % f for f in fields if f[1] not in read}


def test_every_dataclass_field_is_read():
    names = unread_fields(SRC)
    assert names - set(FIELDS_ALLOWED) == set(), \
        "record fields no module reads (delete them or read them in a pipeline)"
    assert set(FIELDS_ALLOWED) <= names


def test_a_field_only_written_or_passed_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "@dataclass\nclass Report:\n"
        "    value: float\n    echo: int = 0\n    rows: list = field(default_factory=list)\n"
        "    note: str = ''\n\n"
        "@dataclass(frozen=True)\nclass Pair:\n    lo: float\n    hi: float\n\n"
        "class Plain:\n    width: int = 0\n\n"
        "def run(n):\n    rep = Report(value=1.0, echo=n)\n    rep.note = 'set'\n"
        "    rep.rows.append(Pair(0.0, 1.0).hi)\n    return rep.value\n")
    # ``echo`` is only passed, ``note`` only stored and ``lo`` only built;
    # ``rows`` is read to append to it, and a plain class is not a record
    assert unread_fields(tmp_path) == {"Report.echo", "Report.note", "Pair.lo"}


def _is_cfg(node) -> bool:
    """``cfg`` or ``<anything>.cfg``: the package's one name for a RunConfig."""
    return ((isinstance(node, ast.Name) and node.id == "cfg")
            or (isinstance(node, ast.Attribute) and node.attr == "cfg"))


def unread_config_fields(src: Path) -> set:
    """``RunConfig`` fields that no module other than ``config.py`` reads.

    A field is read as an attribute of ``cfg`` (a name, or an attribute of
    that name), or as ``self.field`` inside a ``RunConfig`` method other
    than ``validate`` that such a module reads off a ``cfg``.
    """
    config = ast.parse((src / "config.py").read_text())
    cls = next(node for node in config.body
               if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    fields = {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}
    methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
    read = set()
    for path in sorted(src.glob("*.py")):
        if path.name in ("config.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and _is_cfg(node.value):
                read.add(node.attr)
            if isinstance(node, ast.arg) and getattr(node.annotation, "id", None) == "RunConfig":
                assert node.arg == "cfg", "%s: a RunConfig is called cfg" % path.name
    for name in (read & set(methods)) - {"validate"}:
        read |= {node.attr for node in ast.walk(methods[name])
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return fields - read


def test_every_job_file_key_is_read():
    assert unread_config_fields(SRC) == set(), \
        "RunConfig fields no pipeline reads (delete the key with its solver path)"


def test_a_config_field_read_only_by_validate_is_flagged(tmp_path):
    (tmp_path / "config.py").write_text(
        "class RunConfig:\n"
        "    model: str = 'a'\n    n: int = 2\n    kind: str = 'chi'\n"
        "    restarts: int = 1\n\n"
        "    def model_params(self):\n        return {'n': self.n}\n\n"
        "    def validate(self):\n        return self.kind, self.restarts\n")
    (tmp_path / "cli.py").write_text(
        "def run(cfg):\n    return cfg.model, cfg.model_params(), row.restarts\n")
    # ``n`` is read through ``model_params``; ``restarts`` only off a row
    assert unread_config_fields(tmp_path) == {"kind", "restarts"}


def unread_defaults(src: Path) -> set:
    """Module-level constants of ``defaults.py`` that no module other than
    ``__init__.py`` loads, as a bare name or as an attribute (``defaults.X``).
    A read inside ``defaults.py`` itself, as by ``default_node_count``, counts."""
    tree = ast.parse((src / "defaults.py").read_text())
    constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
    read = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return constants - read


def test_every_default_is_read():
    assert unread_defaults(SRC) == set(), \
        "constants no module reads (delete them with the code that used them)"


def test_a_default_only_imported_is_flagged(tmp_path):
    (tmp_path / "defaults.py").write_text(
        "CAP = 3\nTOL = 1e-9\nSTEP = 0.5\nOLD = 80\n\n"
        "def rule(n):\n    return min(n, CAP)\n")
    (tmp_path / "a.py").write_text(
        "from . import defaults\nfrom .defaults import OLD, TOL\n\n"
        "def run(x):\n    return x < TOL, defaults.STEP\n")
    assert unread_defaults(tmp_path) == {"OLD"}


def unused_imports(src: Path) -> set:
    """``module:name`` for each name a module other than ``__init__.py``
    (whose imports are its exports) imports and never loads."""
    unused = set()
    for name, tree in _trees(src).items():
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused.update("%s:%s" % (name, b) for b in bound - loaded)
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    assert unused_imports(SRC) == set()


def test_an_unused_import_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\nimport math\nimport os.path\n"
        "import numpy as np\nfrom .defaults import CAP, OLD as STALE\n\n"
        "def run(x: np.ndarray):\n    return os.path.join(str(CAP), str(x))\n")
    assert unused_imports(tmp_path) == {"a.py:math", "a.py:STALE"}


def unset_parameters(src: Path) -> set:
    """``function.parameter`` for each defaulted parameter of a public
    module-level function defined in ``src`` that no call in a module other
    than ``__init__.py`` passes, by position or by keyword.  A call is matched
    by the bare name or the attribute name it calls, so this goes by name too;
    ``**kw`` at a call site passes nothing by name."""
    trees = _trees(src)
    defaulted = {}
    for tree in trees.values():
        for fn in _public(tree.body, (ast.FunctionDef, ast.AsyncFunctionDef)):
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            defaulted[fn.name] = (
                {a.arg: i for i, a in enumerate(positional) if i >= first}
                | {a.arg: None for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                   if d is not None})
    passed = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for param, index in defaulted.get(name, {}).items():
                if ((index is not None and index < len(node.args))
                        or any(k.arg == param for k in node.keywords)):
                    passed.add((name, param))
    return {"%s.%s" % (fn, param) for fn, params in defaulted.items()
            for param in params if (fn, param) not in passed}


def test_every_defaulted_parameter_is_passed():
    names = unset_parameters(SRC)
    assert names - set(PARAMETERS_ALLOWED) == set(), \
        "defaulted parameters only tests pass (delete them or pass them in a pipeline)"
    assert set(PARAMETERS_ALLOWED) <= names


def test_a_parameter_only_tests_set_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text(
        "def solve(x, tol=1e-10, t_max=200.0, *, mode='a', seed=0):\n"
        "    return x\n\n"
        "def scan(x, k=2, rows=None, **kw):\n    return solve(x, k, **kw)\n\n"
        "def _private(x, cap=3):\n    return x\n\n"
        "class Box:\n    def width(self, pad=0):\n        return pad\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n\n"
        "def run(x):\n    return a.solve(x, 1e-8, mode='b'), a.scan(x, 3, rows=[])\n")
    (tmp_path / "__init__.py").write_text(
        "from .a import solve\n\nX = solve(0.0, seed=1, t_max=1.0)\n")
    # ``tol`` goes by position and ``mode`` by keyword through an attribute,
    # ``k`` and ``rows`` likewise; the ``__init__.py`` call, ``**kw``, a
    # private function and a method do not count
    assert unset_parameters(tmp_path) == {"solve.t_max", "solve.seed"}
