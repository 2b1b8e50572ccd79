"""Every function, method and property in `src/morn` is used by the program
or by the gates that pin it: it has a caller in `src/morn`, or ACCEPTANCE
(`tests/test_acceptance.py`) imports or calls it, or perfbench's span tracer
rebinds it (`perfbench/spans.py`). A definition nothing calls is a second
copy of a rule to read and keep equal, or no rule at all.

Uses are matched by name: a name, an attribute or, for ACCEPTANCE, an
imported name. So a method counts as called when any object's attribute
of that name is read; the check finds definitions no code names at all.

Every constant, a name bound at module level or by a plain assignment in a
class body (enum members, `__slots__` and annotated dataclass or NamedTuple
fields aside), is read in the same places: by `src/morn`, by ACCEPTANCE or
by perfbench's span tables. A constant nothing reads outlives the rule it
was written for.

Every exception class in `src/morn` is also named by an `except` clause
there: one no handler names is only a second name for its base class.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "morn"
# run by the interpreter: the constructor and the dataclass hook after it
IMPLICIT = {"__init__", "__post_init__"}
# a call of the builtin on the left calls the method on the right
PROTOCOL = {"len": "__len__"}


def definitions():
    """(module, name) of every function, method and property in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, node.name


def names_used(path, imports=False):
    """Every name and attribute `path` reads, with the methods its builtin
    calls reach; with `imports`, the names it imports too."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
            if node.id in PROTOCOL:
                used.add(PROTOCOL[node.id])
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif imports and isinstance(node, ast.alias):
            used.add(node.name)
    return used


def rebound_by_perfbench():
    """The attribute names perfbench's span tables rebind."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_definition_has_a_caller():
    used = set(IMPLICIT)
    for path in SRC.glob("*.py"):
        used |= names_used(path)
    used |= names_used(ROOT / "tests" / "test_acceptance.py", imports=True)
    used |= rebound_by_perfbench()
    unused = [f"{module}.{name}" for module, name in definitions() if name not in used]
    assert not unused, f"defined in src/morn but never called: {unused}"


def constants():
    """(module, name) of every module-level constant and every class
    constant that is not an enum member or `__slots__`."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = [node for node in tree.body
                 if isinstance(node, ast.Assign)
                 or isinstance(node, ast.AnnAssign) and node.value is not None]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and not any(
                    (getattr(base, "id", None) or getattr(base, "attr", "")).endswith("Enum")
                    for base in cls.bases):
                bound += [node for node in cls.body if isinstance(node, ast.Assign)]
        for node in bound:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id != "__slots__":
                        yield path.stem, name.id


def names_read(path):
    """Every name and attribute `path` reads; unlike `names_used`, a name
    it only binds does not count."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_constant_is_read():
    read = set()
    for path in SRC.glob("*.py"):
        read |= names_read(path)
    read |= names_used(ROOT / "tests" / "test_acceptance.py", imports=True)
    read |= rebound_by_perfbench()
    found = list(constants())
    assert found, "no constant found in src/morn"
    unread = [f"{module}.{name}" for module, name in found if name not in read]
    assert not unread, f"constant defined in src/morn but never read: {unread}"


def bound_by_package_root():
    """Every name `src/morn/__init__.py` binds at its top level."""
    bound = set()
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    return bound


def imported_from_package_root():
    """The names perfbench, the tests and the CI workflow import with
    `from morn import ...`, in code or in the scripts they hold as text."""
    paths = [*(ROOT / "perfbench").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
             *(ROOT / ".github" / "workflows").glob("*.yml")]
    imported = set()
    for path in paths:
        for names in re.findall(r"\bfrom morn import \(?([\w\s,]+)", path.read_text()):
            imported |= {name.split()[0] for name in names.split(",") if name.strip()}
    return imported


def test_every_package_root_name_is_imported():
    # a name the root binds and no caller imports from it is a second
    # path to a definition its submodule already names
    unused = sorted(bound_by_package_root() - imported_from_package_root())
    assert not unused, f"bound in morn/__init__.py but never imported from morn: {unused}"


def exception_classes():
    """(module, name) of every exception class the package's modules define."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"morn.{path.stem}".removesuffix(".__init__"))
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                yield path.stem, name


def names_caught():
    """Every name an `except` clause in `src/morn` names."""
    caught = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    return caught


def test_every_exception_class_is_caught():
    classes = list(exception_classes())
    assert classes, "no exception class found in src/morn"
    caught = names_caught()
    uncaught = [f"{module}.{name}" for module, name in classes if name not in caught]
    assert not uncaught, f"exception class defined in src/morn but never caught there: {uncaught}"
