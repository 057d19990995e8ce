"""Repository hygiene: git tracks no file that .gitignore excludes (generated
or stale), every name a module imports is used in it, every function, class
and method in src/ is reached from the acceptance battery or the CLI,
every exception class in src/ is raised there and tested on its own,
README's Layout block names every module, the engine modules stay
fraction-free, quasiinv states its conditions without asking which
variant a space is, and scalars states the field-element protocol once."""

import ast
import builtins
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    inside = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
        capture_output=True, text=True,
    )
    if inside.returncode != 0 or Path(inside.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this project")
    listed = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
        capture_output=True, text=True, check=True,
    )
    assert listed.stdout == "", "tracked but ignored:\n" + listed.stdout


def test_readme_layout_names_every_module():
    """The Layout block of README.md names exactly the modules of
    src/cycdaha/ (the package __init__ aside)."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```", 2)[1]
    named = {line.split()[0] for line in block.splitlines()
             if line.strip() and line.split()[0].endswith(".py")}
    modules = {path.name for path in (ROOT / "src" / "cycdaha").glob("*.py")}
    assert named == modules - {"__init__.py"}


def _unused_imports(path):
    """Names a module imports but never reads (from __future__ excepted)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    modules = sorted((ROOT / "src" / "cycdaha").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    unused = [u for path in modules for u in _unused_imports(path)]
    assert not unused, "imported but unused:\n" + "\n".join(unused)


# Modules whose arithmetic runs on ints: Fraction enters only where a value
# leaves the engine (reports, JSON, the terms view), through scalars.
FRACTION_FREE = ("kernel", "laurent", "macdonald", "ops", "tableaux")


def test_engine_modules_do_not_import_fractions():
    importers = []
    for name in FRACTION_FREE:
        tree = ast.parse((ROOT / "src" / "cycdaha" / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                       else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "fractions" in modules:
                importers.append(f"{name}.py:{node.lineno}")
    assert not importers, "imports fractions: " + ", ".join(importers)


# Where the library's verdicts reach users: the acceptance battery and the
# command line.  Module-level statements are roots too, since they run on
# import (catalog tables, the criterion list).
REACH_ROOTS = ("acceptance.run_all", "cli.main")

# Defs kept although no verdict calls them yet, each for a planned criterion
# (ROADMAP open items):
REACH_ALLOWLIST = (
    "scalars.z_from_c",             # item 1: the deg-cyc <-> cyc parameter map
    "algebra.basis_monomials",      # item 3: the PBW criterion over QQ
    "algebra.independence_check",   # item 3
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _loaded_names(nodes):
    """Names the nodes load as a Name or an attribute (string constants and
    import aliases do not count)."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
    return out


def unreached_defs(sources, roots, allowlist):
    """(unreached, stale) for {module: source text}.

    The defs are each module's top-level functions and classes and the
    methods of those classes, named "module.name" or "module.Class.name".
    Starting from the roots, the allowlist and every module-level statement,
    a def is reached when a reached body loads its bare name; a reached class
    also brings its dunder methods.  stale lists allowlist entries that name
    no def."""
    defs = {}  # qualified name -> (bare name, body nodes, dunder methods)
    names = set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, _DEFS):
                defs[f"{module}.{node.name}"] = (node.name, [node], [])
            elif isinstance(node, ast.ClassDef):
                dunders = []
                for sub in node.body:
                    if isinstance(sub, _DEFS):
                        qual = f"{module}.{node.name}.{sub.name}"
                        defs[qual] = (sub.name, [sub], [])
                        if sub.name.startswith("__") and sub.name.endswith("__"):
                            dunders.append(qual)
                rest = [sub for sub in node.body if not isinstance(sub, _DEFS)]
                body = node.bases + node.keywords + node.decorator_list + rest
                defs[f"{module}.{node.name}"] = (node.name, body, dunders)
            else:
                names |= _loaded_names([node])
    reached = set()
    todo = [q for q in (*roots, *allowlist) if q in defs]
    while True:
        todo += [q for q, (name, _, _) in defs.items() if name in names and q not in reached]
        if not todo:
            break
        qual = todo.pop()
        if qual not in reached:
            reached.add(qual)
            _, body, dunders = defs[qual]
            names |= _loaded_names(body)
            todo += dunders
    return sorted(set(defs) - reached), sorted(set(allowlist) - set(defs))


def test_unreached_defs_checker_reports_both_faults():
    source = """
TABLE = {"x": lambda: kept()}


def main():
    return helper() + Box().size


def helper():
    return 1


def kept():
    pass


def planted():
    pass


class Box:
    def __init__(self):
        self.n = 1

    @property
    def size(self):
        return self.n

    def unused(self):
        return "planted"
"""
    unreached, stale = unreached_defs({"m": source}, ("m.main",), ("m.gone",))
    assert unreached == ["m.Box.unused", "m.planted"]
    assert stale == ["m.gone"]


def test_every_def_serves_a_verdict():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "cycdaha").glob("*.py"))}
    unreached, stale = unreached_defs(sources, REACH_ROOTS, REACH_ALLOWLIST)
    assert not (unreached or stale), (
        "reached from neither acceptance.run_all nor cli.main:\n" + "\n".join(unreached)
        + "\nallowlist entries that name no def:\n" + "\n".join(stale))


def _is_exception_base(node, local):
    """Whether a class base names a built-in exception or one of local."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    if name in local:
        return True
    obj = getattr(builtins, name or "", None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def exception_faults(sources, tests):
    """(unraised, untested) for {module: source text} and {name: test text}.

    The exception classes are each module's top-level classes derived from
    a built-in exception or from another such class, named "module.Class".
    unraised lists those that no raise statement in sources names; untested
    those that no pytest.raises in tests takes as its sole first argument
    (a tuple of types does not count: it passes on any one of them)."""
    classes = {}  # bare name -> qualified name
    grew = True
    while grew:
        grew = False
        for module, text in sources.items():
            for node in ast.parse(text).body:
                if (isinstance(node, ast.ClassDef) and node.name not in classes
                        and any(_is_exception_base(b, classes) for b in node.bases)):
                    classes[node.name] = f"{module}.{node.name}"
                    grew = True

    def named(node):
        if isinstance(node, ast.Call):
            node = node.func
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    raised = {named(node.exc) for text in sources.values()
              for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.Raise) and node.exc is not None}
    tested = {named(node.args[0]) for text in tests.values()
              for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.Call) and named(node) == "raises" and node.args
              and isinstance(node.args[0], (ast.Name, ast.Attribute))}
    return (sorted(q for name, q in classes.items() if name not in raised),
            sorted(q for name, q in classes.items() if name not in tested))


def test_exception_checker_reports_both_faults():
    source = """
class Raised(Exception):
    pass


class Unraised(ValueError):
    pass


class Tupled(Raised):
    pass


class Plain:
    pass


def f(x):
    if x:
        raise Raised("x")
    raise Tupled
"""
    tests = {"t": """
import pytest


def test_f():
    with pytest.raises(Raised):
        f(1)
    with pytest.raises((Tupled, Raised)):
        f(0)
    with pytest.raises(m.Unraised, match="never"):
        pass
"""}
    unraised, untested = exception_faults({"m": source}, tests)
    assert unraised == ["m.Unraised"]
    assert untested == ["m.Tupled"]


def test_every_exception_is_raised_and_tested_alone():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "cycdaha").glob("*.py"))}
    tests = {path.stem: path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "tests").glob("*.py"))}
    unraised, untested = exception_faults(sources, tests)
    assert not (unraised or untested), (
        "exception classes never raised in src/:\n" + "\n".join(unraised)
        + "\nnot the sole type of any pytest.raises in tests/:\n" + "\n".join(untested))


# The quasiinvariant conditions are stated once, from (l, a, q, M): the
# variant name is read only where a space is built and checked, and where
# the flatness protocol checks and reports its input.
VARIANT_READERS = ("QuasiSpec.__post_init__", "flatness_report")


def variant_readers(source):
    """The defs of a module that load an attribute named variant: top-level
    functions and methods, named "name" or "Class.name", a nested def
    counting as part of the def around it."""
    readers = []
    for node in ast.parse(source).body:
        if isinstance(node, _DEFS):
            defs = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            defs = [(f"{node.name}.{sub.name}", sub) for sub in node.body
                    if isinstance(sub, _DEFS)]
        else:
            continue
        readers += [name for name, d in defs
                    if any(isinstance(n, ast.Attribute) and n.attr == "variant"
                           and isinstance(n.ctx, ast.Load) for n in ast.walk(d))]
    return sorted(readers)


def test_variant_reader_checker_finds_methods_and_nested_defs():
    source = """
class Spec:
    def __post_init__(self):
        self.variant = str(self.variant)

    def rows(self):
        self.variant = "stored, not read"


def check(spec):
    def inner():
        return spec.variant
    return inner()


def label(variant):
    return variant
"""
    assert variant_readers(source) == ["Spec.__post_init__", "check"]


def test_quasiinv_reads_the_variant_only_to_build_check_and_report():
    source = (ROOT / "src" / "cycdaha" / "quasiinv.py").read_text(encoding="utf-8")
    extra = [name for name in variant_readers(source) if name not in VARIANT_READERS]
    assert not extra, "quasiinv defs that fork on the variant: " + ", ".join(extra)


# Q(zeta_l) and Q(t) share one arithmetic protocol: only the element base
# states coercion, the operators with their reflections, power and equality,
# and only the Domain bases (the abstract Domain and _ExtensionField, beside
# RationalField) state coerce and the scalar JSON.
ELEMENT_PROTOCOL = {
    "_coerce", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__eq__", "__hash__"}
DOMAIN_PROTOCOL = {"coerce", "scalar_to_json", "scalar_from_json"}


def class_definers(source, names):
    """The classes of a module whose body defines one of names, by a def or
    an assignment such as __radd__ = __add__."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, _DEFS):
                    bound = [sub.name]
                elif isinstance(sub, ast.Assign):
                    bound = [t.id for t in sub.targets if isinstance(t, ast.Name)]
                else:
                    continue
                if names.intersection(bound):
                    out.add(node.name)
    return out


def test_class_definer_checker_finds_defs_and_aliases():
    source = """
class Base:
    def __add__(self, other):
        return other


class Alias(Base):
    __radd__ = Base.__add__


class Plain(Base):
    def __neg__(self):
        return self
"""
    assert class_definers(source, {"__add__", "__radd__"}) == {"Base", "Alias"}


def test_scalars_states_the_field_protocol_once():
    source = (ROOT / "src" / "cycdaha" / "scalars.py").read_text(encoding="utf-8")
    assert class_definers(source, ELEMENT_PROTOCOL) == {"_FieldElement"}
    assert class_definers(source, DOMAIN_PROTOCOL) == {
        "Domain", "_ExtensionField", "RationalField"}
