"""Dead-API guard: every public name of the package has a caller.

A name-based AST scan.  Every public top-level function or class defined in
``src/kreinpair/*.py`` must be referenced by name (a variable or an
attribute) in ``src/kreinpair`` or ``perfbench``, and every public method by
an attribute (``x.name``): a variable or parameter that shares a method's
name is not a call of the method.  Import
statements and ``__all__`` strings are not references, so a re-export in
``kreinpair/__init__.py`` keeps no name alive, and neither does the name's
own ``def``.  Names kept only for the tests are listed in ``TEST_ONLY``,
each with its reason.  ``perfbench`` is read, never written.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kreinpair"
CALLERS = (PACKAGE, ROOT / "perfbench")

TEST_ONLY = {
    "scaled_defect_instance": "the degeneration family of acceptance criterion 6",
    "CriterionReport.all_true": "the verdict of all three criteria in the "
                                "completeness tests",
    "OperatorWithDomain.dissipation_form": "the form on two vectors, the "
                                           "oracle of the assembled Gram",
    "RieszRepresenter.kernel_vectors": "the square-root kernel, checked "
                                       "against the symmetric domain",
    "transform_traces": "a change of boundary triple, for the scale and "
                        "pair-from-triple checks of ROADMAP items 1 and 2",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions() -> dict[str, str]:
    """``{qualified name: bare name}`` of the public functions, classes and
    methods defined in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        found[f"{node.name}.{item.name}"] = item.name
    return found


def referenced_names() -> tuple[set[str], set[str]]:
    """``(variables, attributes)``: the bare names read as variables and as
    attributes in the callers."""
    names, attributes = set(), set()
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    return names, attributes


def used_definitions() -> set[str]:
    """Qualified names of the public definitions that have a caller."""
    names, attributes = referenced_names()
    return {qual for qual, bare in public_definitions().items()
            if bare in attributes or ("." not in qual and bare in names)}


def test_every_public_name_has_a_caller():
    used = used_definitions()
    dead = sorted(qual for qual in public_definitions()
                  if qual not in used and qual not in TEST_ONLY)
    assert dead == [], f"public names with no caller in src or perfbench: {dead}"


def test_test_only_names_are_defined_and_uncalled():
    defined = public_definitions()
    assert all(qual in defined for qual in TEST_ONLY)
    assert sorted(set(TEST_ONLY) & used_definitions()) == []


def test_all_entries_are_defined():
    for path in sorted(PACKAGE.glob("*.py")):
        name = "kreinpair" if path.stem == "__init__" else f"kreinpair.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"{name}.__all__ names undefined {missing}"
