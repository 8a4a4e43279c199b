"""The package exports exactly what its users import.

The users are the demos, the benchmark's set-up probe and the README's code:
the quick tour and the names that its inline code calls, such as
``AngleSchedule("extended", dps=...)``.  Every exported name has one of these
users, and every name they import from ``nshard`` is exported.  Demo 03,
which the demo tests do not run, is covered here.
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
