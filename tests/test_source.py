"""Static checks on the library's source.

Certificates are checked by real code, so the library holds no ``assert``
statement (``python -O`` strips them).  Every import is used, and every
private function is called from somewhere other than its own body.  f's
integer form on a ball is built in one place: only ``RationalMap.rescaled``
and the descent ``lower_bound_bF`` rescale coefficients.  The level digraph
evaluates num and den in one kernel, ``_expansion``: the successors, the
intrinsic-level search and cycle lifting read every image off it, and
nothing else in ``digraph.py`` evaluates a polynomial at a point
(``_evaluate``).  Only ``domains.py`` reads a domain's maximal balls; every
other module counts and lists its level-t balls through ``count`` and
``decompose_residues``, and starts a walk from ``start_residues``.  Every
raised exception is typed: a ``PadicDynError`` subclass, ``ValueError``, or the
``AttributeError`` of the package's ``__getattr__``.  No memo outlives an op:
the only module-level caches are the prime test's and the CLI's parser and
module loader, and the values a map or a domain keeps for itself leave its
``==``, ``hash`` and ``repr`` as they were.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

from padicdyn import errors, parse_domain, parse_map

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "padicdyn").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def _references(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a name or an
    attribute."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
    return refs


def _unreferenced_private_functions(trees: list[ast.Module]) -> list[str]:
    """The single-underscore functions and methods whose name is read
    nowhere in ``trees`` outside their own body (names match across
    modules)."""
    everywhere = sum((_references(tree) for tree in trees), Counter())
    return [
        fn.name
        for tree in trees
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name.startswith("_") and not fn.name.startswith("__")
        and everywhere[fn.name] == _references(fn)[fn.name]
    ]


def _callers(trees: list[ast.Module], name: str) -> set[str]:
    """The functions and methods whose bodies call ``name`` (by its bare
    name), or ``<module>`` for a call outside any function."""
    found = set()
    for tree in trees:
        owners = [(fn.name, fn) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == name):
                inside = [n for n, fn in owners if call in set(ast.walk(fn))]
                # the innermost function is the last one listed among those
                # that hold the call (ast.walk is breadth first)
                found.add(inside[-1] if inside else "<module>")
    return found


def _attribute_readers(trees: dict[str, ast.Module], attr: str) -> set[str]:
    """The modules that read ``attr`` as an attribute (``x.attr``)."""
    return {
        name for name, tree in trees.items()
        if any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(tree))
    }


def _untyped_raises(trees: dict[str, ast.Module], typed: set[str]) -> list[str]:
    """``module:line name`` of each raise statement that names an exception
    outside ``typed``, other than an AttributeError raised by ``__init__.py``'s
    ``__getattr__``; a bare ``raise`` re-raises what it caught and is skipped."""
    found = []
    for module, tree in trees.items():
        # the nodes of the package's __getattr__, where AttributeError is typed
        lookup = {
            n for fn in ast.walk(tree) if module == "__init__.py"
            and isinstance(fn, ast.FunctionDef) and fn.name == "__getattr__"
            for n in ast.walk(fn)
        }
        for n in ast.walk(tree):
            if isinstance(n, ast.Raise) and n.exc is not None:
                name = ast.unparse(n.exc.func if isinstance(n.exc, ast.Call) else n.exc)
                if name not in typed and not (name == "AttributeError" and n in lookup):
                    found.append(f"{module}:{n.lineno} {name}")
    return found


TYPED_ERRORS = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.PadicDynError)
} | {"ValueError"}


def test_sources_are_found():
    assert {"__init__.py", "scaling.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(_tree(path)) == []


def test_the_unused_import_check_sees_one():
    tree = ast.parse("import os\nfrom sys import argv, path as p\nprint(argv)\n")
    assert _unused_imports(tree) == ["os", "p"]


def test_only_the_form_and_the_descent_rescale_coefficients():
    trees = [_tree(p) for p in SOURCES]
    assert _callers(trees, "_rescaled_coefficients") == {"rescaled", "lower_bound_bF"}


def test_every_image_is_read_off_the_expansion():
    trees = [_tree(p) for p in SOURCES]
    assert _callers(trees, "_expansion") == {"_successors", "_lifts", "intrinsic_level"}
    digraph = [_tree(p) for p in SOURCES if p.name == "digraph.py"]
    # the closure that _expansion returns
    assert _callers(digraph, "_evaluate") == {"expand"}


def test_the_evaluation_check_sees_a_second_evaluator():
    tree = ast.parse(
        "def _expansion(form, K):\n"
        "    def expand(a):\n        return _evaluate(form.den, a)\n"
        "    return expand\n"
        "class Analysis:\n"
        "    def intrinsic_level(self):\n"
        "        image = lambda y: _evaluate(self.form.num, y)\n"
        "        return [image(y) for y in range(3)]\n"
    )
    assert _callers([tree], "_evaluate") == {"expand", "intrinsic_level"}


def test_the_rescaling_check_sees_each_caller():
    tree = ast.parse(
        "def _rescaled_coefficients(F):\n    return F\n"
        "class M:\n"
        "    def rescaled(self):\n        return _rescaled_coefficients(1)\n"
        "def kernel():\n"
        "    def inner():\n        return _rescaled_coefficients(2)\n"
        "    return inner\n"
        "x = _rescaled_coefficients(3)\n"
    )
    assert _callers([tree], "_rescaled_coefficients") == {"rescaled", "inner", "<module>"}


def test_only_domains_reads_the_maximal_balls():
    trees = {p.name: _tree(p) for p in SOURCES}
    assert _attribute_readers(trees, "balls") == {"domains.py"}


def test_the_ball_reader_check_sees_one():
    trees = {
        "domains.py": ast.parse("def count(X):\n    return len(X.balls)\n"),
        "digraph.py": ast.parse("balls = 3\nn = sum(b.level for b in self.X.balls)\n"),
        "cli.py": ast.parse("balls = [1]\nprint(balls)\n"),
    }
    assert _attribute_readers(trees, "balls") == {"domains.py", "digraph.py"}


def test_every_private_function_is_referenced():
    assert _unreferenced_private_functions([_tree(p) for p in SOURCES]) == []


def test_the_private_function_check_sees_unreferenced_ones():
    tree = ast.parse(
        "def _used():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class A:\n"
        "    def __init__(self):\n        self.x = _used()\n"
        "    def _method(self):\n        return self._method()\n"
        "    def _read(self):\n        return 2\n"
        "print(A()._read())\n"
    )
    assert _unreferenced_private_functions([tree]) == ["_recursive", "_method"]


def test_every_raise_names_a_typed_error():
    trees = {p.name: _tree(p) for p in SOURCES}
    assert _untyped_raises(trees, TYPED_ERRORS) == []


def test_the_raise_check_sees_untyped_ones():
    trees = {
        "__init__.py": ast.parse(
            "def __getattr__(name):\n    raise AttributeError(name)\n"
            "def other(name):\n    raise AttributeError(name)\n"
        ),
        "hensel.py": ast.parse(
            "def lift():\n"
            "    try:\n        step()\n    except KeyError:\n        raise\n"
            "    if late():\n        raise RuntimeError('no convergence')\n"
            "    if bad():\n        raise ValueError('bad input')\n"
            "    raise CertificateFailed('not a root')\n"
        ),
        "cli.py": ast.parse("raise KeyError\n"),
    }
    assert _untyped_raises(trees, TYPED_ERRORS) == [
        "__init__.py:4 AttributeError", "hensel.py:7 RuntimeError", "cli.py:1 KeyError",
    ]


def _module_caches(trees: dict[str, ast.Module]) -> set[str]:
    """``module:function`` for each function decorated with ``cache`` or
    ``lru_cache``, bare, called or read off ``functools``."""
    found = set()
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in fn.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)
                    if name in ("cache", "lru_cache"):
                        found.add(f"{module}:{fn.name}")
    return found


def test_no_cache_outlives_an_op():
    # a memo kept across ops would flatter every warm benchmark metric
    trees = {p.name: _tree(p) for p in SOURCES}
    assert _module_caches(trees) == {
        "padics.py:require_prime", "cli.py:_build_parser", "cli.py:_module",
    }


def test_the_cache_check_sees_each_spelling():
    trees = {
        "maps.py": ast.parse(
            "import functools\n"
            "@functools.lru_cache(maxsize=None)\ndef _form(f, M):\n    return M\n"
            "class RationalMap:\n"
            "    @cache\n    def rescaled(self, M):\n        return M\n"
            "    @cached_property\n    def _forms(self):\n        return {}\n"
        ),
        "domains.py": ast.parse("@lru_cache\ndef height(X):\n    return 0\n"),
    }
    assert _module_caches(trees) == {"maps.py:_form", "maps.py:rescaled", "domains.py:height"}


def test_kept_values_leave_equality_hash_and_repr_alone():
    # the form per M and the domain's base level and height live outside
    # the fields: a map or domain that has computed them equals, hashes
    # and prints as a fresh one
    f, X = parse_map("(x^2+3)/(1+9x)", 3), parse_domain("Zp-B(1,-2)", 3)
    before = [(repr(o), hash(o)) for o in (f, X)]
    f.rescaled(0), f.rescaled(2), X.base_level, X.height_exponent()
    g, Y = parse_map("(x^2+3)/(1+9x)", 3), parse_domain("Zp-B(1,-2)", 3)
    assert (f, X) == (g, Y) and [(repr(o), hash(o)) for o in (f, X)] == before
    assert {f: 1}[g] == 1 and {X: 1}[Y] == 1
    # and the form is built once per M
    assert f.rescaled(2) is f.rescaled(2) and g.rescaled(2) == f.rescaled(2)
