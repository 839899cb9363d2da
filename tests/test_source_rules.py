"""Rules the source keeps: no threads, no environment reads, no unused
imports, no worst-residual fold through builtin max (in the tests too),
no unit vector built by hand, no direct ExactSubspace(...) call
outside exactlin, no Fraction(...) or frac_matrix call in randgen, no
integer product sum(map(mul, ...)) outside exactlin.int_products, no
max-norm outside diffnum.max_abs, no float(...) comprehension outside diffnum, no
object.__setattr__ but on self in __post_init__, no numpy import outside
diffnum, no import of diffnum outside suites, no concat_vec or
zero_vector call inside a comprehension or loop outside exactlin, no
st.fractions in the tests, no read of a Fraction's parts outside
exactlin's _FRACTION_PARTS and _over_lcm, no .sum(...) of an
.intersect(...) (lagrel.Splitting.splits decides that statement by two
meets), no int_matrix, rank, inverse or ExactSubspace.span call on a
.matrix attribute, no read of the kept bracket table (_sparse, _den)
outside quadlie, no except naming ArithmeticError or ValueError in a
suite_* function or cli.cmd_verify, and no Fraction matrix arithmetic
(mat_mul, mat_vec, transpose, inverse, Coordinatizer.coords_rows and
the rest of FRACTION_ARITHMETIC) and no Fraction bracket, pairing or
Courant tensor (bracket_vec, BilinearForm.pairing, courant_tensor and
the rest) defined, imported or called in the package.

Pure-Python Fraction work holds the GIL, so a thread pool only slows the
exact suites down; a report must depend on its command line alone, not
on the environment it runs in; an import nothing uses hides which names
a module really depends on; max(worst, nan) returns worst, so a fold
through builtin max lets a NaN residual pass (diffnum.worst keeps it);
and a linear map applied to hand-built unit vectors one at a time is a
matrix product taken column by column (a unit vector is a row of
exactlin.identity); a subspace's stored rows decide its equality only
while they are canonical, which the exactlin constructors (of_rows,
span, zero, full) keep; and randgen draws, inverts and multiplies on
integer rows, so a Fraction built there at all is a normalisation the
integer path exists to avoid; and every exact matrix
product is one exactlin.int_products, so a product written in place is
a second home that a call count cannot see; and one conversion
(diffnum.np_matrix) and one norm (diffnum.max_abs) keep every float
residual computed the same way; and a frozen value is written only by
its own constructor, so no module keeps its cache on another module's
value; and the float work has one home, diffnum, which only the FD
suites load, so the exact modules and commands never load numpy; and a
block matrix has one home, exactlin (hstack, zeros, block_diag), so a
row padded by hand in a loop is a second home whose unchecked zip drops
rows when block heights differ; and st.fractions spends most of a test's
time in Hypothesis's engine, where tests/exact_strategies.rationals
draws from the same finite value set; and int_matrix is the one way from
exact input into integer rows, so a numerator or denominator read
anywhere else is a second converter, with its own coercion and its own
errors; and "W = (W cap E) + (W cap F)" has one home, Splitting.splits,
which counts two meets, so a sum of intersections is a second copy of that test
(a sum whose receiver is not an intersection, such as leaf_condition's
L_m + (ker cap E), is a different statement and stays legal); and a
form, a bivector and a point keep their matrix as integer rows, so an
elimination or conversion that starts again from the .matrix of one is
a second conversion of rows already kept; and the structure
constants have one public form, QuadraticLieAlgebra.bracket, and one
derived table, the sparse integer rows _sparse over _den that the
constructor builds from it, so a module that reads that table depends on
a private layout that only quadlie keeps in step with bracket (bracket
and pair_brackets are the readers the other modules have);
and a numeric breakdown has one handler, the runner suites._run, which
fails only the record whose check broke down, where a handler in a suite
or around it ends the suite, or every suite, at the first breakdown; and
every exact matrix in the package is an integer table (rows, den), so a
Fraction product, sum, transpose, inverse or coordinate is a round trip
int_matrix -> integer kernel -> frac_matrix that the data makes for no
reason (this rule also keeps out what the retired rules against a
mat_vec per list element and a mat_mul nested in a mat_mul did); and
the brackets of integer rows have one home, pair_brackets, and the
Courant values <u, [v, w]> one, courant_values, so a Fraction bracket,
pairing or tensor table is a second home of each, whose every reader
turned it back into integers.
"""

import ast
from pathlib import Path

import courantlab

SOURCES = sorted(Path(courantlab.__file__).parent.glob("*.py"))
# modules checked for unused imports; a package __init__ imports to re-export
IMPORTERS = [p for p in SOURCES + sorted(Path(__file__).parent.glob("*.py"))
             if p.name != "__init__.py"]
NO_IMPORT = ("concurrent", "threading", "multiprocessing")


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            names = [f"os.{node.attr}"]
        else:
            continue
        for name in names:
            if name.split(".")[0] in NO_IMPORT or name in ("os.environ", "os.getenv"):
                found.append(f"line {node.lineno}: {name}")
    return found


def test_sources_are_found():
    assert any(p.name == "suites.py" for p in SOURCES)


def test_no_threads_and_no_environment_reads():
    bad = {p.name: v for p in SOURCES if (v := _violations(ast.parse(p.read_text())))}
    assert bad == {}


def test_the_rule_catches_each_form():
    for src in ("import threading", "from concurrent.futures import ThreadPoolExecutor",
                "import os\nos.environ.get('X')", "from os import environ", "os.getenv('X')"):
        assert _violations(ast.parse(src)), src
    assert _violations(ast.parse("import os\nos.path.join('a')")) == []


def _unused_imports(tree: ast.AST) -> list[str]:
    """Names an import binds that no expression of the module reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    assert any(p.name == "test_source_rules.py" for p in IMPORTERS)
    bad = {p.name: v for p in IMPORTERS if (v := _unused_imports(ast.parse(p.read_text())))}
    assert bad == {}


def test_the_unused_import_rule_catches_each_form():
    for src in ("import json", "import os.path", "from a import b", "from a import b as c",
                "def f():\n    from a import b\n    return 1"):
        assert _unused_imports(ast.parse(src)), src
    for src in ("from __future__ import annotations", "import os.path\nos.path.join('a')",
                "from a import b as c\nc()", "import json\ndef f() -> json.JSONDecoder: ..."):
        assert _unused_imports(ast.parse(src)) == [], src


def _max_folds(tree: ast.AST) -> list[str]:
    """Calls of builtin max with an argument named worst..."""
    return [
        f"line {node.lineno}" for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "max"
        and any(isinstance(a, ast.Name) and a.id.startswith("worst") for a in node.args)
    ]


def test_no_worst_residual_folds_through_max():
    # the tests decide pass or fail on residuals too, so they keep the rule
    assert any(p.name == "test_acceptance.py" for p in IMPORTERS)
    bad = {p.name: v for p in SOURCES + IMPORTERS if (v := _max_folds(ast.parse(p.read_text())))}
    assert bad == {}


def test_the_max_fold_rule_catches_each_form():
    for src in ("worst = max(worst, r)", "w = max(worst_hom, f(x))", "max(r, worst)",
                "worst = max(worst, float(dp), float(dm))"):
        assert _max_folds(ast.parse(src)), src
    for src in ("max(a, b)", "np.max(worst)", "max(values, default=0.0)", "worst(rs)"):
        assert _max_folds(ast.parse(src)) == [], src


def _fraction_names(tree: ast.AST) -> set[str]:
    """Fraction and every name the module imports it under."""
    return {"Fraction"} | {
        a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and node.module == "fractions" for a in node.names if a.name == "Fraction" and a.asname
    }


def _is_call_of(node: ast.AST, names: set[str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in names


def _holders(tree: ast.AST, match) -> list[str]:
    """The enclosing function (or <module>) of each node that match accepts."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if match(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def _unit_vectors(tree: ast.AST) -> list[str]:
    """The functions (or <module>) holding a Fraction(1 if ... else 0)
    or Fraction(1) if ... else Fraction(0) entry, under any name the
    module gives Fraction."""
    names = _fraction_names(tree)

    def fraction_arg(node: ast.AST) -> ast.AST | None:
        if not (_is_call_of(node, names) and len(node.args) == 1):
            return None
        return node.args[0]

    def is_unit(node: ast.AST) -> bool:
        arg = fraction_arg(node)
        if isinstance(arg, ast.IfExp):
            branches = (arg.body, arg.orelse)
        elif isinstance(node, ast.IfExp):
            branches = (fraction_arg(node.body), fraction_arg(node.orelse))
        else:
            return False
        values = [b.value for b in branches if isinstance(b, ast.Constant) and b.value in (0, 1)]
        return sorted(values) == [0, 1]

    return _holders(tree, is_unit)


def test_unit_vectors_are_rows_of_identity():
    bad = {p.name: v for p in SOURCES if (v := _unit_vectors(ast.parse(p.read_text())))}
    assert bad == {}


def test_the_unit_vector_rule_catches_each_form():
    for src in ("z = tuple(Fraction(1 if a == i else 0) for a in range(n))",
                "fractions.Fraction(1 if i == j else 0)", "Fraction(0 if i != j else 1)",
                "from fractions import Fraction as F\nF(1 if i == j else 0)",
                "def f(k):\n    return [Fraction(1 if c == r else 0) for c in range(k)]",
                "Fraction(1) if i == j else Fraction(0)"):
        assert _unit_vectors(ast.parse(src)), src
    assert _unit_vectors(ast.parse("def f():\n    Fraction(1 if a else 0)")) == ["f"]
    for src in ("Fraction(1)", "Fraction(x if c else 0)", "Fraction(2 if c else 0)",
                "identity(n)[i]", "F(1 if a else 0)", "Fraction(1) if a else Fraction(2)",
                "Fraction(1 if a else 0, 2)"):
        assert _unit_vectors(ast.parse(src)) == [], src


def _subspace_constructions(tree: ast.AST) -> list[str]:
    """Calls of ExactSubspace itself, by bare name or as an attribute;
    its classmethods (ExactSubspace.span(...) and the like) pass."""
    return [
        f"line {node.lineno}" for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name)
             else getattr(node.func, "attr", None)) == "ExactSubspace"
    ]


def test_subspaces_are_built_through_exactlin():
    assert any(p.name == "exactlin.py" for p in SOURCES)
    bad = {p.name: v for p in SOURCES if p.name != "exactlin.py"
           and (v := _subspace_constructions(ast.parse(p.read_text())))}
    assert bad == {}


def test_the_subspace_construction_rule_catches_each_form():
    for src in ("ExactSubspace(3, ((1, 0, 0),))", "exactlin.ExactSubspace(2, ())",
                "def f(n):\n    return ExactSubspace(n, rows=())"):
        assert _subspace_constructions(ast.parse(src)), src
    for src in ("ExactSubspace.span([(1, 0)])", "ExactSubspace.of_rows(2, [[1, 0]])",
                "ExactSubspace.zero(3)", "exactlin.ExactSubspace.full(2)", "ExactSubspace"):
        assert _subspace_constructions(ast.parse(src)) == [], src


def _fraction_calls(tree: ast.AST) -> list[str]:
    """The functions (or <module>) holding a Fraction(...) call, under any
    name the module gives Fraction."""
    names = _fraction_names(tree)
    return _holders(tree, lambda node: _is_call_of(node, names))


def test_randgen_builds_no_fraction():
    tree = ast.parse(next(p for p in SOURCES if p.name == "randgen.py").read_text())
    assert _fraction_calls(tree) == []
    assert _holders(tree, lambda node: _is_call_of(node, {"frac_matrix"})) == []


def test_the_fraction_call_rule_catches_each_form():
    for src in ("Fraction(1, 2)", "def small(rng):\n    return Fraction(rng.randint(-2, 2), 3)",
                "from fractions import Fraction as F\nF(x, d)", "fractions.Fraction(0)"):
        assert _fraction_calls(ast.parse(src)), src
    assert _fraction_calls(ast.parse("def f():\n    Fraction(x, d)")) == ["f"]
    for src in ("Fraction", "isinstance(x, Fraction)", "from fractions import Fraction as F\nG(1)",
                "x.as_integer_ratio()"):
        assert _fraction_calls(ast.parse(src)) == [], src


# the one integer matrix product
INTEGER_PRODUCTS = {("exactlin.py", "int_products")}


def _is_name_or_attr(node: ast.AST, name: str) -> bool:
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == name


def _integer_products(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function or <module>, line) of each sum(map(mul, ...)),
    with mul by bare name or as operator.mul."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (_is_call_of(node, {"sum"}) and node.args and _is_call_of(node.args[0], {"map"})
                and node.args[0].args and _is_name_or_attr(node.args[0].args[0], "mul")):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_integer_products_live_in_int_products():
    found = [(p.name, where, line) for p in SOURCES
             for where, line in _integer_products(ast.parse(p.read_text()))]
    outside = [f"{name} line {line}" for name, where, line in found
               if (name, where) not in INTEGER_PRODUCTS]
    assert {(name, where) for name, where, _ in found} == INTEGER_PRODUCTS, outside


def test_the_integer_product_rule_catches_each_form():
    # the in-place products the sources used to hold, and their forms
    for src in ("[[sum(map(mul, a, r)) for a in ints] for r in s.rows]",
                "total = sum(map(mul, wedge, cn))",
                "def _times(rows, m):\n    return [[sum(map(mul, r, c)) for c in m] for r in rows]",
                "not any(sum(map(mul, gr, t)) for gr in applied for t in rows)",
                "sum(map(operator.mul, u, v))"):
        assert _integer_products(ast.parse(src)), src
    assert _integer_products(ast.parse("def f(u, v):\n    return sum(map(mul, u, v))")) == [("f", 2)]
    for src in ("sum(map(add, u, v))", "map(mul, u, v)", "sum(r)", "int_products(rows, cols)",
                "sum(x * y for x, y in zip(u, v))", "sum(map(abs, v))"):
        assert _integer_products(ast.parse(src)) == [], src


def _is_np_call(node: ast.AST, names: tuple[str, ...]) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np")


def _is_max_norm(node: ast.AST) -> bool:
    """np.max(np.abs(...)) or np.abs(...).max(...)."""
    if _is_np_call(node, ("max", "amax")):
        return bool(node.args) and _is_np_call(node.args[0], ("abs", "absolute"))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "max" and _is_np_call(node.func.value, ("abs", "absolute")))


def test_the_max_norm_lives_in_max_abs():
    diffnum = next(p for p in SOURCES if p.name == "diffnum.py")
    assert _holders(ast.parse(diffnum.read_text()), _is_max_norm) == ["max_abs"]
    bad = {p.name: v for p in SOURCES if p.name != "diffnum.py"
           and (v := _holders(ast.parse(p.read_text()), _is_max_norm))}
    assert bad == {}


def test_the_max_norm_rule_catches_each_form():
    for src in ("np.max(np.abs(x))", "float(np.max(np.abs(a - b)))", "np.abs(x).max()",
                "np.amax(np.absolute(x))", "def f(a):\n    return np.abs(a).max(initial=0.0)"):
        assert _holders(ast.parse(src), _is_max_norm), src
    for src in ("np.max(x)", "np.abs(x)", "max_abs(x)", "np.abs(x).sum()", "max(np.abs(x))"):
        assert _holders(ast.parse(src), _is_max_norm) == [], src


def _float_comprehensions(tree: ast.AST) -> list[str]:
    """The functions (or <module>) holding a comprehension whose element
    is a float(...) call."""
    kinds = (ast.ListComp, ast.GeneratorExp, ast.SetComp)
    return _holders(tree, lambda node: isinstance(node, kinds)
                    and _is_call_of(node.elt, {"float"}))


def test_entries_are_converted_in_diffnum_only():
    assert any(p.name == "liegrp.py" for p in SOURCES)
    bad = {p.name: v for p in SOURCES if p.name != "diffnum.py"
           and (v := _float_comprehensions(ast.parse(p.read_text())))}
    assert bad == {}


def test_the_float_comprehension_rule_catches_each_form():
    for src in ("[float(x) for x in row]", "np.array([[float(x) for x in row] for row in m])",
                "tuple(float(c) for c in v)", "{float(x) for x in s}",
                "def f(v):\n    return np.asarray([float(x) for x in v])"):
        assert _float_comprehensions(ast.parse(src)), src
    for src in ("[x for x in row]", "float(x)", "np_matrix(m)", "[f(x) for x in row]"):
        assert _float_comprehensions(ast.parse(src)) == [], src


def _is_object_setattr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "object")


def _frozen_writes(tree: ast.AST) -> list[str]:
    """The functions (or <module>) holding an object.__setattr__ call
    other than one on self in a __post_init__."""
    writes = _holders(tree, _is_object_setattr)
    foreign = _holders(tree, lambda node: _is_object_setattr(node) and not (
        node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"))
    return [w for w in writes if w != "__post_init__"] + [w for w in foreign if w == "__post_init__"]


def test_frozen_values_are_written_by_their_constructor():
    assert any(p.name == "lagrel.py" for p in SOURCES)
    bad = {p.name: v for p in SOURCES if (v := _frozen_writes(ast.parse(p.read_text())))}
    assert bad == {}


def test_the_frozen_write_rule_catches_each_form():
    kept_on_splitting = ("def _kept_tables(alg, s):\n"
                         "    object.__setattr__(s, 'tensor_tables', (alg, 1))")
    assert _frozen_writes(ast.parse(kept_on_splitting)) == ["_kept_tables"]
    for src in ("object.__setattr__(other, 'x', 1)",
                "def __post_init__(self):\n    object.__setattr__(other, 'x', 1)",
                "def keep(self):\n    object.__setattr__(self, 'x', 1)",
                "def __post_init__(self):\n    object.__setattr__(*args)"):
        assert _frozen_writes(ast.parse(src)), src
    for src in ("class A:\n    def __post_init__(self):\n        object.__setattr__(self, 'x', 1)",
                "setattr(other, 'x', 1)", "other.__setattr__('x', 1)"):
        assert _frozen_writes(ast.parse(src)) == [], src


# each float module, and the one source file that may import it
FLOAT_IMPORTS = {"numpy": "diffnum.py", "diffnum": "suites.py"}


def _float_imports(tree: ast.AST, name: str) -> list[str]:
    """The lines of the module ``name`` that import numpy outside diffnum
    or diffnum outside suites, at module or function level."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{a.name}".lstrip(".") for a in node.names]
        else:
            continue
        if any(FLOAT_IMPORTS.get(part, name) != name
               for n in names for part in n.split(".")):
            found.append(f"line {node.lineno}")
    return found


def test_numpy_lives_in_diffnum_alone():
    assert {"diffnum.py", "suites.py"} <= {p.name for p in SOURCES}
    bad = {p.name: v for p in SOURCES if (v := _float_imports(ast.parse(p.read_text()), p.name))}
    assert bad == {}


def test_the_float_import_rule_catches_each_form():
    for src in ("import numpy as np", "import numpy.linalg", "from numpy import linalg",
                "def f():\n    import numpy\n    return numpy", "from .diffnum import max_abs",
                "from . import diffnum", "from courantlab import diffnum",
                "import courantlab.diffnum", "def f():\n    from .diffnum import worst"):
        assert _float_imports(ast.parse(src), "liegrp.py"), src
    assert _float_imports(ast.parse("from . import anchored, diffnum"), "cli.py") == ["line 1"]
    assert _float_imports(ast.parse("import numpy as np"), "suites.py") == ["line 1"]
    for src in ("from . import anchored, lagrel", "import numbers", "from .exactlin import rank",
                "import math"):
        assert _float_imports(ast.parse(src), "liegrp.py") == [], src
    assert _float_imports(ast.parse("import numpy as np"), "diffnum.py") == []
    assert _float_imports(ast.parse("def f():\n    from . import diffnum"), "suites.py") == []


def _padded_rows(tree: ast.AST) -> list[str]:
    """The lines of the concat_vec and zero_vector calls inside a
    comprehension or a loop."""
    loops = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.For, ast.While)
    return sorted({f"line {node.lineno}" for loop in ast.walk(tree) if isinstance(loop, loops)
                   for node in ast.walk(loop) if _is_call_of(node, {"concat_vec", "zero_vector"})})


def test_block_rows_are_laid_out_by_exactlin():
    assert any(p.name == "exactlin.py" for p in SOURCES)
    bad = {p.name: v for p in SOURCES if p.name != "exactlin.py"
           and (v := _padded_rows(ast.parse(p.read_text())))}
    assert bad == {}


def test_the_padded_row_rule_catches_each_form():
    # the forms the sources held before hstack: a comprehension, a for
    # loop appending, a padded generator, and a while loop
    for src in ("rows = [concat_vec(x, x, ax, zero_vector(m)) for x, ax in zip(identity(n), a_cols)]",
                "for z in identity(n):\n    rows.append(concat_vec(z, z, zero, zero))",
                "def constant(v, k):\n    return tuple(zero_vector(k) for _ in v)",
                "while rows:\n    out.append(exactlin.zero_vector(n) + rows.pop())",
                "{i: zero_vector(i) for i in range(3)}"):
        assert _padded_rows(ast.parse(src)) == ["line 2" if "\n" in src else "line 1"], src
    for src in ("zero = zero_vector(n)", "rows = hstack(identity(n), zeros(n, m))",
                "w if w else zero_vector(n)", "[zeros(k, n) for k in ks]",
                "for r in rows:\n    pass\nzero_vector(3)"):
        assert _padded_rows(ast.parse(src)) == [], src


TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _fraction_strategies(tree: ast.AST) -> list[str]:
    """The lines of the Hypothesis fractions(...) calls, as st.fractions,
    strategies.fractions or a bare imported name."""
    return [f"line {node.lineno}" for node in ast.walk(tree) if _is_call_of(node, {"fractions"})]


def test_no_fraction_strategies_in_the_tests():
    assert any(p.name == "test_exactlin.py" for p in TESTS)
    bad = {p.name: v for p in TESTS if (v := _fraction_strategies(ast.parse(p.read_text())))}
    assert bad == {}


def test_the_fraction_strategy_rule_catches_each_form():
    for src in ("st.fractions(min_value=-3, max_value=3, max_denominator=3)",
                "hypothesis.strategies.fractions().filter(bool)",
                "from hypothesis.strategies import fractions\nfractions(max_denominator=2)",
                "entries = st.lists(st.fractions(max_value=1), min_size=2)"):
        assert _fraction_strategies(ast.parse(src)), src
    for src in ("rationals(3, 3)", "Fraction(1, 2)", "fractions.Fraction(1)",
                "st.sampled_from(values)", "import fractions"):
        assert _fraction_strategies(ast.parse(src)) == [], src


# where a Fraction's numerator and denominator may be read: the one
# attrgetter of its fields, and _over_lcm, under int_matrix
FRACTION_PART_READERS = {("exactlin.py", "_FRACTION_PARTS"), ("exactlin.py", "_over_lcm")}
FRACTION_PARTS = {"as_integer_ratio", "numerator", "denominator", "_numerator", "_denominator"}


def _fraction_part_reads(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, module-level assignment target or <module>,
    line) of each attribute access x.numerator and the like, and of each
    string naming such a field (attrgetter, getattr)."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif (isinstance(node, ast.Assign) and where == "<module>" and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            where = node.targets[0].id
        if ((isinstance(node, ast.Attribute) and node.attr in FRACTION_PARTS)
                or (isinstance(node, ast.Constant) and node.value in FRACTION_PARTS)):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_fraction_parts_are_read_under_int_matrix_alone():
    found = [(p.name, where, line) for p in SOURCES
             for where, line in _fraction_part_reads(ast.parse(p.read_text()))]
    outside = [f"{name} line {line}" for name, where, line in found
               if (name, where) not in FRACTION_PART_READERS]
    assert ("exactlin.py", "_FRACTION_PARTS") in {(name, where) for name, where, _ in found}
    assert outside == []


def test_the_fraction_part_rule_catches_each_form():
    # the second converter exactlin used to hold, and the other spellings
    for src in ("def _parts(x):\n    return x.as_integer_ratio()", "x.numerator", "f.denominator",
                "v._numerator * (den // v._denominator)", "attrgetter('_numerator', '_denominator')",
                "getattr(x, 'denominator')", "[frac(x).numerator for x in row]",
                "PARTS = operator.attrgetter('numerator')"):
        assert _fraction_part_reads(ast.parse(src)), src
    assert _fraction_part_reads(ast.parse("def f(x):\n    return x.denominator")) == [("f", 2)]
    assert _fraction_part_reads(ast.parse("P = attrgetter('_numerator')")) == [("P", 1)]
    for src in ("int_matrix(rows)", "Fraction(n, d)", "'the numerator'", "numerator = 1",
                "den = lcm(*dens)", "def numerator(x):\n    pass", "x.num"):
        assert _fraction_part_reads(ast.parse(src)) == [], src


def _sums_of_intersections(tree: ast.AST) -> list[str]:
    """The functions (or <module>) holding an x.sum(...) call whose
    receiver x is an .intersect(...) call."""
    return _holders(tree, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sum" and _is_call_of(node.func.value, {"intersect"})))


def test_splitting_verdicts_live_in_splits():
    # Splitting.splits, the one home of "W = (W cap E) + (W cap F)", counts
    # two meets, so a sum of intersections anywhere is a second copy
    found = {(p.name, where) for p in SOURCES
             for where in _sums_of_intersections(ast.parse(p.read_text()))}
    assert found == set()


def test_the_sum_of_intersections_rule_catches_each_form():
    # the three inline tests the sources used to hold, and the bare form
    for src in ("w.intersect(e).sum(w.intersect(f))",
                "kernel_splits = ker.intersect(e).sum(ker.intersect(f)) == ker",
                "def reduce(s, w0):\n    return s.e.intersect(w0).sum(s.f.intersect(w0)) != w0",
                "exactlin.ExactSubspace.zero(2).intersect(a).sum(b)"):
        assert _sums_of_intersections(ast.parse(src)), src
    assert _sums_of_intersections(ast.parse("def f(w):\n    w.intersect(e).sum(x)")) == ["f"]
    for src in ("a.sum(b.intersect(c))", "drinfeld_lagrangian(pt, f).sum(ker.intersect(s.e))",
                "sum(w.intersect(e))", "a.intersect(b).dim", "a.sum(b).intersect(c)",
                "a.intersect(b).basis.sum()"):
        assert _sums_of_intersections(ast.parse(src)) == [], src


# the exactlin calls that put their argument into integer rows
RECONVERTERS = {"int_matrix", "rank", "inverse"}


def _matrix_reconversions(tree: ast.AST) -> list[str]:
    """The lines of the int_matrix, rank, inverse and ExactSubspace.span
    calls, by bare name or as an attribute, with an argument that is a
    .matrix attribute."""
    def reconverts(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        is_span = name == "span" and _is_name_or_attr(getattr(func, "value", None), "ExactSubspace")
        args = node.args + [k.value for k in node.keywords]
        return (name in RECONVERTERS or is_span) and any(
            isinstance(a, ast.Attribute) and a.attr == "matrix" for a in args)

    return [f"line {node.lineno}" for node in ast.walk(tree) if reconverts(node)]


def test_kept_integer_rows_are_not_converted_again():
    bad = {p.name: v for p in SOURCES if (v := _matrix_reconversions(ast.parse(p.read_text())))}
    assert bad == {}


def test_the_matrix_reconversion_rule_catches_each_form():
    # the five calls the sources used to hold, and the other spellings
    for src in ("pi, dp = int_matrix(s.bivector.matrix)", "rank(reduced_form.matrix) < q.dim",
                "def inverse_matrix(self):\n    return inverse(self.matrix)",
                "ExactSubspace.span(self.matrix, ambient_dim=self.dim)",
                "exactlin.rank(b.matrix)", "exactlin.ExactSubspace.span(vectors=pi.matrix)"):
        assert _matrix_reconversions(ast.parse(src)) == ["line 2" if "\n" in src else "line 1"], src
    for src in ("int_matrix(m)", "rank(reduced_form._ints[0])", "inverse(gram)",
                "ExactSubspace.span(rows)", "mat_mul(b.matrix, a)", "matrix(self.matrix)",
                "s.span(x.matrix)", "rank(self.matrix_rows)"):
        assert _matrix_reconversions(ast.parse(src)) == [], src


# the one derived table of QuadraticLieAlgebra, read by quadlie alone
BRACKET_TABLE = {"_sparse", "_den"}


def _bracket_table_reads(tree: ast.AST) -> list[str]:
    """The lines of each attribute access x._sparse or x._den, and of
    each string naming one of them (getattr, attrgetter)."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in BRACKET_TABLE)
            or (isinstance(node, ast.Constant) and node.value in BRACKET_TABLE)]


def test_the_bracket_table_is_read_in_quadlie_alone():
    assert _bracket_table_reads(ast.parse((SOURCES[0].parent / "quadlie.py").read_text()))
    bad = {p.name: v for p in SOURCES if p.name != "quadlie.py"
           and (v := _bracket_table_reads(ast.parse(p.read_text())))}
    assert bad == {}


def test_the_bracket_table_rule_catches_each_form():
    for src in ("s = alg._sparse", "alg._sparse[i][j]", "frac_matrix(rows, ctx.algebra._den)",
                "getattr(alg, '_den')", "attrgetter('_sparse', '_den')",
                "for k, c in self._sparse[i][j]:\n    pass"):
        assert set(_bracket_table_reads(ast.parse(src))) == {"line 1"}, src
    assert _bracket_table_reads(ast.parse("def f(a):\n    return a._den")) == ["line 2"]
    for src in ("alg.bracket", "alg.pair_brackets(rows)", "form._ints[1]", "row_den = den",
                "sparse = 1", "x.sparse", "'_dense'"):
        assert _bracket_table_reads(ast.parse(src)) == [], src


BREAKDOWNS = {"ArithmeticError", "ValueError"}


def _breakdown_lines(fn: ast.AST) -> list[int]:
    """The lines of the except clauses under fn that name ArithmeticError
    or ValueError."""
    return [node.lineno for node in ast.walk(fn)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and BREAKDOWNS & {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.type)
                              if isinstance(n, (ast.Name, ast.Attribute))}]


def _breakdown_handlers(tree: ast.AST, module: str) -> list[str]:
    """The breakdown handlers inside a suite_* function (its checks
    included) or, in cli.py, cmd_verify."""
    return [f"{fn.name} line {line}" for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and (fn.name.startswith("suite_") or (module, fn.name) == ("cli.py", "cmd_verify"))
            for line in _breakdown_lines(fn)]


def test_a_breakdown_is_handled_by_the_runner_alone():
    tree = ast.parse((SOURCES[0].parent / "suites.py").read_text())
    (runner,) = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_run"]
    assert _breakdown_lines(runner)
    bad = {p.name: v for p in SOURCES if (v := _breakdown_handlers(ast.parse(p.read_text()), p.name))}
    assert bad == {}


def test_the_breakdown_handler_rule_catches_each_form():
    body = "    try:\n        x = 1\n    except {}:\n        pass\n"
    for handler in ("ValueError", "ValueError as exc", "(ArithmeticError, KeyError)",
                    "builtins.ValueError", "ZeroDivisionError | ValueError"):
        src = "def suite_x():\n" + body.format(handler)
        assert _breakdown_handlers(ast.parse(src), "suites.py") == ["suite_x line 4"], src
    nested = "def suite_x():\n    def check():\n    " + body.format("ValueError").replace("\n    ", "\n        ")
    assert _breakdown_handlers(ast.parse(nested), "suites.py") == ["suite_x line 5"]
    cli = "def cmd_verify(args):\n" + body.format("(ArithmeticError, ValueError) as exc")
    assert _breakdown_handlers(ast.parse(cli), "cli.py") == ["cmd_verify line 4"]
    for module, name, handler in (("suites.py", "suite_x", "KeyError"),
                                  ("suites.py", "suite_x", "anchored.CourantStructureError"),
                                  ("suites.py", "_run", "ValueError"),
                                  ("cli.py", "cmd_validate", "ValueError"),
                                  ("suites.py", "cmd_verify", "ValueError")):
        src = f"def {name}():\n" + body.format(handler)
        assert _breakdown_handlers(ast.parse(src), module) == [], (module, name, handler)


# the Fraction matrix arithmetic that left the package, the Fraction
# bracket, pairing and Courant tensor layer, and the names that moved to
# tests/algebra_reference.py as the tests' references
FRACTION_ARITHMETIC = {
    "vector", "add_vec", "scale_vec", "transpose", "mat_add", "mat_scale", "mat_mul", "mat_vec",
    "inverse", "rref", "solve", "nullspace", "quotient_coords", "reduce_bivector",
    "courant_bracket_jets", "courant_bracket_jet_closed", "random_coisotropic_anchor",
    "QuotientMap", "ReducedIso", "ReducedBivector", "ReductionError", "SectionJet",
    "courant_form", "CourantTensor3", "_tabulate", "courant_tensor", "courant_tensor_on_basis",
    "cartan_trivector",
}
FRACTION_METHODS = {"Coordinatizer": {"coords", "coords_rows"}, "LinearRelation": {"reduced_iso"},
                    "BilinearForm": {"inverse_matrix", "pairing"},
                    "QuadraticLieAlgebra": {"bracket_vec", "bracket_basis", "pairing", "full_space"}}
MODULES = {p.stem for p in SOURCES}


def _fraction_arithmetic(tree: ast.AST) -> list[str]:
    """The lines that define, import or call a name of FRACTION_ARITHMETIC
    (a module-level def or class, an import, a call by bare name or through
    a courantlab module), define a method of FRACTION_METHODS in its class,
    or read one of those methods (coords aside: the FD chart's float
    coords shares its name)."""
    found = []
    methods = set().union(*FRACTION_METHODS.values()) - {"coords"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Module):
            found += [d.lineno for d in node.body if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                      and d.name in FRACTION_ARITHMETIC]
        elif isinstance(node, ast.ClassDef):
            found += [d.lineno for d in node.body if isinstance(d, ast.FunctionDef)
                      and d.name in FRACTION_METHODS.get(node.name, ())]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [node.lineno for a in node.names if a.name.split(".")[-1] in FRACTION_ARITHMETIC]
        elif isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id in FRACTION_ARITHMETIC)
                or (isinstance(node.func, ast.Attribute) and node.func.attr in FRACTION_ARITHMETIC
                    and isinstance(node.func.value, ast.Name) and node.func.value.id in MODULES)):
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in methods:
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(set(found))]


def test_no_fraction_matrix_arithmetic_in_the_package():
    # every exact matrix in src/ is an integer table; the Fraction loops and
    # the names no module called live in tests/algebra_reference.py
    assert {"exactlin.py", "lagrel.py", "randgen.py"} <= {p.name for p in SOURCES}
    bad = {p.name: v for p in SOURCES if (v := _fraction_arithmetic(ast.parse(p.read_text())))}
    assert bad == {}


def test_the_fraction_arithmetic_rule_catches_each_form():
    for src in ("def mat_mul(*factors):\n    pass", "class QuotientMap:\n    pass",
                "from .exactlin import transpose", "from courantlab.exactlin import (hstack, mat_vec)",
                "import courantlab.randgen.random_coisotropic_anchor",
                "rows = mat_mul(a, b)", "[mat_vec(a, v) for v in vs]", "exactlin.inverse(g)",
                "x = lagrel.reduce_bivector(s, w)",
                "class Coordinatizer:\n    def coords_rows(self, vs):\n        pass",
                "class Coordinatizer:\n    def coords(self, v):\n        pass",
                "class BilinearForm:\n    @cached_property\n    def inverse_matrix(self):\n        pass",
                "q.coords_rows(vs)", "iso = r.reduced_iso", "form.inverse_matrix",
                # the Fraction bracket, pairing and Courant tensor layer
                "def courant_form(alg, u1, u2, u3):\n    pass", "class CourantTensor3:\n    pass",
                "def _tabulate(alg, sub, basis):\n    pass",
                "from .quadlie import courant_tensor_on_basis", "from courantlab.quadlie import courant_form",
                "courant_tensor(alg, lag)", "quadlie.cartan_trivector(alg)", "_tabulate(alg, sub, b)",
                "class QuadraticLieAlgebra:\n    def bracket_vec(self, x, y):\n        pass",
                "class QuadraticLieAlgebra:\n    def bracket_basis(self, i, j):\n        pass",
                "class QuadraticLieAlgebra:\n    def full_space(self):\n        pass",
                "class QuadraticLieAlgebra:\n    def pairing(self, x, y):\n        pass",
                "class BilinearForm:\n    def pairing(self, u, v):\n        pass",
                "alg.bracket_vec(x, y)", "alg.bracket_basis(i, j)", "form.pairing(u, v)",
                "t.d_algebra.pairing(u, v)", "alg.full_space()"):
        assert _fraction_arithmetic(ast.parse(src)), src
    assert _fraction_arithmetic(ast.parse("x = 1\ny = transpose(a)")) == ["line 2"]
    for src in ("r.transpose()", "np.transpose(x)", "chart.coords(x)", "a.T @ b",
                "class LinearRelation:\n    def transpose(self):\n        pass",
                "class GroupChart:\n    def coords(self, elt):\n        pass",
                "int_products(a, b)", "table_product(a, b)", "_inverse_of(g_ints)",
                "from .exactlin import int_matrix", "def solve_rows(a):\n    pass",
                "alg.pair_brackets(rows)", "courant_values(alg, rows)", "quadlie.courant_values(alg, e)",
                "pairing = x_jac.T @ (form @ y_value)", "bracket_vec(alg, x, y)",
                "class GroupChart:\n    def pairing(self, u, v):\n        pass"):
        assert _fraction_arithmetic(ast.parse(src)) == [], src
