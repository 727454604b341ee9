"""Dead-API guard: every public name of the package has a caller.

A name-based AST scan.  Every public top-level function or class defined in
``src/kreinpair/*.py`` must be referenced by name (a variable or an
attribute) in ``src/kreinpair`` or ``perfbench``, and every public method by
an attribute (``x.name``): a variable or parameter that shares a method's
name is not a call of the method.  Import
statements and ``__all__`` strings are not references, so a re-export in
``kreinpair/__init__.py`` keeps no name alive, and neither does the name's
own ``def``.  Names kept only for the tests are listed in ``TEST_ONLY``,
each with its reason.  A method or property whose bare name another
package class also defines (a method, a property, a dataclass field or a
``self.name =`` assignment) is matched by class, not by name: ``x.name``
cannot tell whose attribute it reads, so it keeps neither alive, and each
such method is listed in ``SHARED`` with the function of the callers that
reads it, which must read ``.name``.  The same holds for the named constants: every
public UPPERCASE constant assigned at the top level of a package module must
be read (a variable or an attribute in load context, so not its own
assignment) in the package or in ``perfbench``, and every one of
``kreinpair.tolerances`` in another module than its own, so a constant goes
with its last reader.  And for the parameters: every defaulted parameter of
a public function or method (a constructor's under its class name) must be
set, by keyword or by position, by some call of that name in the package or
in ``perfbench``; those set only by the tests are listed in
``TEST_ONLY_PARAMETERS``, each with its reason.  ``perfbench`` is read,
never written.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kreinpair"
CALLERS = (PACKAGE, ROOT / "perfbench")
TOLERANCES = PACKAGE / "tolerances.py"

TEST_ONLY = {
    "scaled_defect_instance": "the degeneration family of acceptance criterion 6",
    "CriterionReport.all_true": "the verdict of all three criteria in the "
                                "completeness tests",
    "transform_traces": "a change of boundary triple, for the scale and "
                        "pair-from-triple checks of ROADMAP items 1 and 2",
}

#: ``{function.parameter: reason}`` for the defaulted parameters that only
#: the tests set
TEST_ONLY_PARAMETERS = {
    "orthonormal_span.scale": "the conftest oracles cut near-zero spans at scale 1",
    "random_dissipative.definite": "the J = I case of test_background_eig",
}

#: ``{qualified method: reader}`` for the methods whose bare name another
#: class defines too; a reader is ``module.function`` or
#: ``module.Class.method`` in ``src/kreinpair`` or ``perfbench``
SHARED = {
    "OperatorWithDomain.classify": "analysis.analyze_operator",
    "OperatorWithDomain.form_scale": "krein.OperatorWithDomain.form_kernel",
    "BandedOperator.classify": "sturm_liouville.discretize",
    "BandedOperator.form_scale": "sturm_liouville.BandedOperator.masked_block",
    "Subspace.dim": "analysis.analyze_operator",
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


def class_attributes() -> dict[str, set[str]]:
    """``{class: names}`` of every package class: its methods and
    properties, its dataclass fields and the names its methods assign as
    ``self.name``."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, ast.ClassDef):
                continue
            names = found.setdefault(node.name, set())
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                elif (isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)):
                    names.add(item.target.id)
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    names.add(sub.attr)
    return found


def shared_methods() -> set[str]:
    """The public methods and properties whose bare name another package
    class defines too (:func:`class_attributes`)."""
    attributes = class_attributes()
    return {qual for qual, bare in public_definitions().items()
            if "." in qual and any(bare in names for cls, names in attributes.items()
                                   if cls != qual.split(".")[0])}


def reader_definitions() -> dict[str, ast.AST]:
    """``{module.function or module.Class.method: node}`` over the callers."""
    found = {}
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            for node in _parse(path).body:
                if isinstance(node, ast.FunctionDef):
                    found[f"{path.stem}.{node.name}"] = node
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            found[f"{path.stem}.{node.name}.{item.name}"] = item
    return found


def constant_names(path: Path) -> set[str]:
    """The public UPPERCASE constants assigned at the top level of ``path``."""
    found = set()
    for node in _parse(path).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found.update(target.id for target in targets
                     if isinstance(target, ast.Name) and target.id.isupper()
                     and not target.id.startswith("_"))
    return found


def public_signatures():
    """``(qualified name, callee, node, skip)`` of each public function and
    each public method or constructor of a public class in the package: the
    name a call uses (a constructor's is its class's) and the count of
    leading parameters a call does not pass (``self`` or ``cls``)."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield node.name, node.name, node, 0
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        yield node.name, node.name, item, 1
                    elif not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item, 1


def defaulted_parameters() -> dict[str, tuple[str, int | None]]:
    """``{qualified parameter: (callee, position)}`` of the defaulted
    parameters of :func:`public_signatures`: the index of the parameter
    among a call's positional arguments, None when keyword-only."""
    found = {}
    for qual, callee, function, skip in public_signatures():
        args = function.args
        positional = (args.posonlyargs + args.args)[skip:]
        for arg in positional[len(positional) - len(args.defaults):]:
            found[f"{qual}.{arg.arg}"] = (callee, positional.index(arg))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found[f"{qual}.{arg.arg}"] = (callee, None)
    return found


def set_parameters() -> set[str]:
    """The qualified parameters of :func:`defaulted_parameters` that some
    call in the callers sets: by keyword, by position, or through ``*`` or
    ``**`` unpacking, which may set any."""
    calls = {}
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
    found = set()
    for qual, (callee, position) in defaulted_parameters().items():
        bare = qual.rsplit(".", 1)[1]
        for call in calls.get(callee, []):
            keywords = {keyword.arg for keyword in call.keywords}
            unpacked = any(isinstance(a, ast.Starred) for a in call.args)
            if (bare in keywords or None in keywords
                    or (position is not None
                        and (unpacked or len(call.args) > position))):
                found.add(qual)
                break
    return found


def referenced_names(skip: Path | None = None) -> tuple[set[str], set[str]]:
    """``(variables, attributes)``: the bare names read as variables and as
    attributes in the callers, apart from the file ``skip``.  Only loads
    count: an assignment to a name does not read it."""
    names, attributes = set(), set()
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            if path == skip:
                continue
            for node in ast.walk(_parse(path)):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    return names, attributes


def used_definitions() -> set[str]:
    """Qualified names of the public definitions that have a caller; a
    shared method has one only through its ``SHARED`` entry."""
    names, attributes = referenced_names()
    shared = shared_methods()
    return {qual for qual, bare in public_definitions().items()
            if (qual in SHARED if qual in shared
                else bare in attributes or ("." not in qual and bare in names))}


def test_every_public_name_has_a_caller():
    used = used_definitions()
    dead = sorted(qual for qual in public_definitions()
                  if qual not in used and qual not in TEST_ONLY)
    assert dead == [], f"public names with no caller in src or perfbench: {dead}"


def test_shared_methods_name_their_readers():
    shared = shared_methods()
    assert {"OperatorWithDomain.classify", "BandedOperator.classify"} <= shared
    assert sorted(shared - set(SHARED) - set(TEST_ONLY)) == []
    assert sorted(set(SHARED) - shared) == []
    readers = reader_definitions()
    for qual, reader in SHARED.items():
        bare = qual.split(".")[1]
        assert reader in readers, f"{qual}: reader {reader} is not defined"
        read = {node.attr for node in ast.walk(readers[reader])
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        assert bare in read, f"{qual}: {reader} reads no .{bare}"


def test_every_named_tolerance_has_a_reader():
    tolerances = constant_names(TOLERANCES)
    assert {"DEFAULT_TOL", "CHECK_GATE"} <= tolerances
    names, attributes = referenced_names(skip=TOLERANCES)
    dead = sorted(tolerances - names - attributes)
    assert dead == [], f"tolerances read nowhere outside their module: {dead}"
    constants = set().union(*map(constant_names, PACKAGE.glob("*.py")))
    assert {"INDEFINITE_CUT", "NEITHER"} <= constants
    names, attributes = referenced_names()
    dead = sorted(constants - names - attributes)
    assert dead == [], f"module constants read nowhere: {dead}"


def test_every_defaulted_parameter_is_set():
    parameters = defaulted_parameters()
    assert {"KreinSpace.tol", "real_spectrum_report.eigs"} <= set(parameters)
    dead = sorted(set(parameters) - set_parameters() - set(TEST_ONLY_PARAMETERS))
    assert dead == [], f"defaulted parameters no call in src or perfbench sets: {dead}"


def test_test_only_parameters_are_defined_and_unset():
    parameters = defaulted_parameters()
    assert all(qual in parameters for qual in TEST_ONLY_PARAMETERS)
    assert sorted(set(TEST_ONLY_PARAMETERS) & set_parameters()) == []


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
