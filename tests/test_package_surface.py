"""Every definition in src/tiltlab has a user the package or its gate sees.

An AST scan over the package.  Each top-level function and class, and
each method whose name is not a dunder, must meet one of these:

- its name is read somewhere in src/tiltlab outside its own body;
- tests/test_acceptance.py imports it;
- bench/tracer.py wraps it as a boundary;
- it is the console entry point;
- it is a reference helper in KEPT, listed with its reason.

A helper that only unit tests reach fails the scan.  Names are matched
as identifiers (a bare name or an attribute), so a method shares the
verdict of every other attribute with its name.

A second scan, over src/tiltlab and tests, fails when a module imports
a name that it never reads.  No linter runs on the repository, so this
is the only guard against stale imports.  A third fails when a module
of src/tiltlab imports a private (`_`-prefixed, not dunder) name from
another module of the package.  A fourth fails when a parameter of a
function, method or lambda in src/tiltlab is never read in its body
(self and cls aside, and bodies that only raise NotImplementedError,
the interface methods of linalg.Field).  A fifth fails when a module of
src/tiltlab other than linalg imports fractions or names Fraction: the
scalar representation is linalg's alone, and every other module computes
with Python's operators on the scalars and reduces through the field's
norm.  A sixth fails when a module of
src/tiltlab other than algebra names the attribute `mats`: how a module
stores its arrow matrices (on its support only) is algebra's alone.
A seventh fails when a module other than algebra names dense_product,
or when a method of a class outside algebra reads a unit or idempotents
and multiplies: the unit and idempotent checks are algebra's
check_unit and check_idempotents, which every class calls.  An eighth
fails when an entry of bench/tracer.py's BOUNDARIES names no function,
method or class that the package defines.  A ninth fails when
linalg.Field, or a class of the package derived from it, defines add,
sub, mul, neg or div: a second arithmetic idiom beside the operators
and norm.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tiltlab"
ENTRY_POINTS = {"cli.main"}
KEPT = {
    "tilting.nu_map": "the Nakayama functor on maps; the twist tests use "
                      "it as the independent reference for nu_inverse",
    "tilting.nu_complex": "the Nakayama functor on complexes; the twist "
                          "round trip checks nu_inverse against it",
    "linalg.Mat.from_rows": "the constructor tests use for outside data",
}


def _identifiers(node):
    """How often each identifier is read inside node."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def _definitions(module, tree):
    """(qualified name, bare name, node) of every definition the scan
    covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("__"):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item)


def _acceptance_imports():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {f"{node.module.split('.')[-1]}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("tiltlab.")
            for alias in node.names}


def _tracer_boundaries():
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "BOUNDARIES"
                    for t in node.targets):
            return {f"{m}.{a}" for m, a in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracer.py defines no BOUNDARIES")


def test_every_definition_has_a_user():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    used = Counter()
    for tree in trees.values():
        used += _identifiers(tree)
    protected = (_acceptance_imports() | _tracer_boundaries()
                 | ENTRY_POINTS | set(KEPT))
    defined, orphans = set(), []
    for module, tree in sorted(trees.items()):
        for qual, name, node in _definitions(module, tree):
            defined.add(qual)
            if used[name] - _identifiers(node)[name] <= 0 and \
                    qual not in protected:
                orphans.append(qual)
    assert set(KEPT) <= defined, "a kept helper no longer exists"
    assert not orphans, "definitions only tests reach: " + ", ".join(orphans)


def test_every_tracer_boundary_is_a_definition():
    """bench/tracer.py wraps each boundary by name, so a renamed or
    removed definition must fail here and not only in a traced run."""
    defined = {qual for path in PACKAGE.glob("*.py")
               for qual, _, _ in _definitions(path.stem,
                                              ast.parse(path.read_text()))}
    missing = sorted(_tracer_boundaries() - defined)
    assert not missing, "tracer boundaries the package does not define: " + \
        ", ".join(missing)


def _unread_imports(tree):
    """Names the module's imports bind that no expression in it reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bound - read


def test_every_import_is_read():
    unread = [f"{path.relative_to(ROOT)}: {name}"
              for path in sorted([*PACKAGE.glob("*.py"),
                                  *(ROOT / "tests").glob("*.py")])
              for name in sorted(_unread_imports(ast.parse(path.read_text())))]
    assert not unread, "imported but never read: " + ", ".join(unread)


def test_no_private_name_crosses_modules():
    crossing = [f"{path.stem}: {alias.name}"
                for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("tiltlab"))
                for alias in node.names
                if alias.name.startswith("_")
                and not alias.name.endswith("__")]
    assert not crossing, "private names imported across modules: " + \
        ", ".join(crossing)


def _only_raises_not_implemented(fn):
    body = [stmt for stmt in fn.body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant))]
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in {n.id for n in ast.walk(body[0])
                                          if isinstance(n, ast.Name)})


def _unread_parameters(tree):
    """(name, line, parameter) of every parameter its function never reads."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.Lambda):
            body = [fn.body]
        elif isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _only_raises_not_implemented(fn):
                continue
            body = fn.body
        else:
            continue
        a = fn.args
        params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg] if p is not None]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params:
            if p not in read and p not in ("self", "cls"):
                yield getattr(fn, "name", "<lambda>"), fn.lineno, p


def test_every_parameter_is_read():
    unread = [f"{path.stem}.{name} (line {line}): {param}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name, line, param in _unread_parameters(
                  ast.parse(path.read_text()))]
    assert not unread, "parameters never read: " + ", ".join(unread)


def _names_fractions(tree):
    """True when the module imports fractions or reads the name Fraction."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and \
                any(a.name.split(".")[0] == "fractions" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            return True
        if (isinstance(node, ast.Name) and node.id == "Fraction") or \
                (isinstance(node, ast.Attribute) and node.attr == "Fraction"):
            return True
    return False


def test_only_linalg_knows_fractions():
    naming = [path.stem for path in sorted(PACKAGE.glob("*.py"))
              if path.stem != "linalg"
              and _names_fractions(ast.parse(path.read_text()))]
    assert not naming, "modules besides linalg that use fractions: " + \
        ", ".join(naming)


def test_only_algebra_reads_arrow_matrices():
    naming = [path.stem for path in sorted(PACKAGE.glob("*.py"))
              if path.stem != "algebra"
              and any(isinstance(n, ast.Attribute) and n.attr == "mats"
                      for n in ast.walk(ast.parse(path.read_text())))]
    assert not naming, "modules besides algebra that read Module.mats: " + \
        ", ".join(naming)


PRODUCTS = {"sparse_product", "dense_product", "mult", "elem_mult",
            "elem_act"}


def _multiplies_unit(fn):
    """True when fn reads an attribute unit or idempotents and calls a
    product: the shape of a unit or idempotent check written in place."""
    reads = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    calls = {getattr(n.func, "attr", getattr(n.func, "id", None))
             for n in ast.walk(fn) if isinstance(n, ast.Call)}
    return bool(reads & {"unit", "idempotents"}) and bool(calls & PRODUCTS)


def test_only_algebra_checks_units_and_multiplies_densely():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "algebra":
            continue
        tree = ast.parse(path.read_text())
        if any((isinstance(n, ast.Name) and n.id == "dense_product")
               or (isinstance(n, ast.Attribute) and n.attr == "dense_product")
               or (isinstance(n, ast.alias) and n.name == "dense_product")
               for n in ast.walk(tree)):
            found.append(f"{path.stem}: dense_product")
        found += [f"{path.stem}.{cls.name}.{fn.name}: checks a unit"
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)
                  and _multiplies_unit(fn)]
    assert not found, "outside algebra: " + ", ".join(found)


FIELD_ARITHMETIC = {"add", "sub", "mul", "neg", "div"}


def test_fields_define_no_arithmetic():
    classes = [node for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    fields, grew = {"Field"}, True
    while grew:
        found = {cls.name for cls in classes
                 if any(getattr(b, "id", getattr(b, "attr", None)) in fields
                        for b in cls.bases)}
        grew = not found <= fields
        fields |= found
    defined = [f"{cls.name}.{fn.name}" for cls in classes
               if cls.name in fields for fn in cls.body
               if isinstance(fn, ast.FunctionDef)
               and fn.name in FIELD_ARITHMETIC]
    assert not defined, "field arithmetic methods: " + ", ".join(defined)
