"""The package exports exactly what its users import.

The users are the demos, the benchmark's set-up probe and the README's code:
the quick tour and the names that its inline code calls, such as
``AngleSchedule("extended", dps=...)``.  Every exported name has one of these
users, and every name they import from ``nshard`` is exported.  Demo 03,
which the demo tests do not run, is covered here.

The schedule owns the number type: outside ``schedule.py`` no module
compares a ``backend`` or reads a schedule's private attributes; they use
its kit (``math``, ``dtype``, ``one``, ``check_depth``, ``context``).

Every output table goes through ``hard1d.write_table``: no other module
imports ``csv``.

The step loop has one oracle path: ``oracles.lockstep`` calls ``query`` at
one site, once per step for all rows, and never tests for a list of instances.

Code kept only for cross-checking lives in ``tests/``: each public module-level
name of ``src/nshard`` and each public ``HardInstance`` method is read outside
``tests/``, by another line of ``src``, a demo, the benchmark (its code or a
``nshard.module:qualname`` target of its tracer) or the README's code.
"""

import ast
import re
from pathlib import Path
from types import ModuleType

import nshard

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def imported(source: str) -> set:
    """Names taken from nshard: ``from nshard import a, b`` and ``nshard.a``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "nshard":
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "nshard":
            names.add(node.attr)
    return names


def exported() -> set:
    return {name for name, value in vars(nshard).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)}


def user_imports() -> set:
    sources = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    sources.append((ROOT / "bench" / "nbench" / "setup_probe.py").read_text())
    sources += re.findall(r"```python\n(.*?)```", README, flags=re.S)
    return set().union(*map(imported, sources))


def test_every_name_a_user_imports_is_exported():
    assert user_imports() <= exported()


def test_every_export_has_a_user():
    readme_calls = set(re.findall(r"`([A-Za-z_]\w*)\(", README))
    assert exported() <= user_imports() | readme_calls


def public_names() -> dict:
    """The public module-level names of src/nshard (functions, classes, constants) as ``module.name``, and the
    public methods of HardInstance as ``HardInstance.name``, each mapped to its bare name."""
    names = {}
    for path in sorted((ROOT / "src" / "nshard").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                defined = []
            names.update({f"{path.stem}.{n}": n for n in defined if not n.startswith("_")})
            if isinstance(node, ast.ClassDef) and node.name == "HardInstance":
                names.update({f"HardInstance.{m.name}": m.name for m in node.body
                              if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")})
    return names


def referenced(source: str) -> set:
    """The names that source reads, as names or attributes, and the parts of its ``nshard.module:qualname``
    strings (the benchmark tracer's targets)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for target in re.findall(r"nshard\.\w+:([\w.]+)", node.value):
                names |= set(target.split("."))
    return names


def test_every_public_name_has_a_user_outside_the_tests():
    sources = [p.read_text() for p in sorted((ROOT / "src" / "nshard").glob("*.py")) if p.name != "__init__.py"]
    sources += [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    sources += [p.read_text() for p in sorted((ROOT / "bench").rglob("*.py")) if "tests" not in p.parts]
    sources += re.findall(r"```python\n(.*?)```", README, flags=re.S)
    users = set().union(*map(referenced, sources)) | set(re.findall(r"`([A-Za-z_]\w*)\(", README))
    assert {key for key, name in public_names().items() if name not in users} == set()


def test_public_names_and_referenced_see_every_kind():
    names = public_names()
    assert {"embed.HardInstance", "embed.row_dots", "embed.NORM_WEIGHT", "HardInstance.support"} <= set(names)
    assert not any(name.startswith("_") for name in names.values())
    source = 'X = 1\nf(a.b)\nc.d = 2\nT = "nshard.embed:HardInstance.min_subgrad"\ndef g():\n    pass'
    assert referenced(source) == {"f", "a", "b", "c", "HardInstance", "min_subgrad"}


def schedule_type_tests(source: str) -> list:
    """Comparisons that involve a ``.backend`` and reads of ``sched._x``, as source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "backend" for o in operands):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            owner = node.value.attr if isinstance(node.value, ast.Attribute) else getattr(node.value, "id", "")
            if "sched" in owner:
                found.append(ast.unparse(node))
    return found


def test_only_the_schedule_branches_on_its_number_type():
    modules = sorted((ROOT / "src" / "nshard").glob("*.py"))
    assert ROOT / "src" / "nshard" / "schedule.py" in modules
    found = {p.name: schedule_type_tests(p.read_text()) for p in modules if p.name != "schedule.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_schedule_type_tests_sees_both_kinds():
    source = 'a = sched.backend == "binary64"\nb = self.sched._one\nc = sched.one\nd = sched.__class__'
    assert schedule_type_tests(source) == ["sched.backend == 'binary64'", "self.sched._one"]


def imported_modules(source: str) -> set:
    """Top-level names of the modules that ``import`` and ``from ... import`` take, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_hard1d_writes_csv():
    modules = sorted((ROOT / "src" / "nshard").glob("*.py"))
    assert "csv" in imported_modules((ROOT / "src" / "nshard" / "hard1d.py").read_text())
    assert [p.name for p in modules if p.name != "hard1d.py" and "csv" in imported_modules(p.read_text())] == []


def test_imported_modules_sees_nested_imports():
    source = "import csv.x\ndef f():\n    from json import dumps\nfrom . import hard1d"
    assert imported_modules(source) == {"csv", "json"}


def oracle_sites(source: str, function: str) -> tuple:
    """In the named function: its ``query`` calls and its ``isinstance`` tests against list or tuple, as source text."""
    body = next(n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef) and n.name == function)
    calls, tests = [], []
    for node in ast.walk(body):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "query":
            calls.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            if any(isinstance(n, ast.Name) and n.id in ("list", "tuple") for n in ast.walk(node.args[1])):
                tests.append(ast.unparse(node))
    return calls, tests


def test_lockstep_queries_the_oracle_at_one_site():
    source = (ROOT / "src" / "nshard" / "oracles.py").read_text()
    calls, tests = oracle_sites(source, "lockstep")
    assert len(calls) == 1 and tests == []


def test_oracle_sites_sees_both_kinds():
    source = ("def lockstep(a, X):\n    if isinstance(a, (list, tuple)):\n        query(a[0], X[0])\n"
              "    isinstance(a, dict)\n    return query(a, X)\ndef run(a, x):\n    return query(a, x)")
    assert oracle_sites(source, "lockstep") == (["query(a, X)", "query(a[0], X[0])"], ["isinstance(a, (list, tuple))"])
