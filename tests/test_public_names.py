"""Every public module-level function or class in ``src/`` must be reached by
something a user runs or reads: ``src/`` code (an AST name or attribute outside
the definition itself, not a docstring), the package root's ``__all__``, or
README.md.  A name only tests call belongs in ``tests/conftest.py``."""

import ast
import pathlib
import re

import entropic_uncertainty

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entropic_uncertainty"

# Items are ROADMAP's open items.
TRACED_ONLY = {
    # reached only by tests and perfbench's TRACED_FUNCTIONS; item 5 decides it once item 1 re-bases that list
    "linalg.conjugate_sandwich",
    # reached only by tests and perfbench's TRACED_FUNCTIONS; item 5 decides it once item 1 re-bases that list
    "linalg.hermitian_eigenvalues",
    # reached only by tests and perfbench's TRACED_FUNCTIONS; item 5 decides it once item 1 re-bases that list
    "linalg.density_spectrum",
    # reached only by tests and perfbench's TRACED_FUNCTIONS; item 5 decides it once item 1 re-bases that list
    "measures.quantum_conditional_entropy",
}


def public_definitions() -> dict[str, str]:
    """'module.name' -> name for each public top-level def or class of the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                found[f"{path.stem}.{node.name}"] = node.name
    return found


def referenced_in_src() -> set[str]:
    """Names used in src/ code, each outside the top-level definition of that name."""
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                # a definition's use of itself (recursion) reaches nothing
                if name is not None and name != getattr(top, "name", None):
                    used.add(name)
    return used


def unreached() -> set[str]:
    used = referenced_in_src()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return {
        dotted
        for dotted, name in public_definitions().items()
        if name not in used
        and name not in entropic_uncertainty.__all__
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    }


def test_every_public_name_is_reached_by_src_the_root_or_the_readme():
    # equality keeps the allow-list exact: a name reached again, or deleted, leaves it
    assert unreached() == TRACED_ONLY
