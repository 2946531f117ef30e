"""The package holds the code the program runs, and the tests share their
reference definitions through one module, tests/reference.py."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crystalpoly"
TESTS = ROOT / "tests"

# definitions that nothing in src/ refers to, kept on purpose
ALLOWED = {
    "Polyhedron.contains",      # public API: is a vector a point of the model
    "CrystalNode.epsilon",      # public API: eps_i of a crystal element
    "_Parser.error",            # argparse calls this override on bad usage
}


def _definitions(tree):
    """(qualified name, name) of every function, method and class in a
    module, nested ones included."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                found.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _loaded_names(tree):
    """The names a module reads, as a bare name or as an attribute.  The
    guard matches by spelling only: a method counts as used when any name
    of that spelling is read, a local variable included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _assigned(tree, target):
    """The value assigned to the module-level name `target`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == target
                for t in node.targets):
            return node.value
    raise AssertionError("no assignment to %s" % target)


def _unused(package):
    """The qualified names of the definitions in `package` that nothing in
    it refers to, outside `__all__`, the traced functions of the benchmark,
    the dunders and ALLOWED."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    public = set(ast.literal_eval(_assigned(trees["__init__.py"],
                                            "__all__")))
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    traced = {entry.elts[1].value
              for entry in _assigned(tracer, "TRACED").elts}
    used = set().union(*map(_loaded_names, trees.values()))
    return [qualified for tree in trees.values()
            for qualified, name in _definitions(tree)
            if name not in used and name not in public
            and name not in traced and qualified not in ALLOWED
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_in_the_package_is_used():
    # a definition only the tests need belongs in tests/reference.py
    assert _unused(PACKAGE) == []


def test_the_guard_sees_an_unused_definition(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "forms.py", "a") as fh:
        fh.write("\n\nclass Spare:\n    def spare(self):\n        pass\n")
    assert _unused(tmp_path) == ["Spare", "Spare.spare"]


def test_test_modules_share_code_only_through_the_reference_module():
    modules = {path.stem for path in TESTS.glob("*.py")}
    for path in sorted(TESTS.glob("test_*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert imported & modules <= {"reference"}, path.name


def test_every_traced_function_exists():
    # the benchmark tracer looks each (module, function) of its TRACED up
    # with getattr, and keys build's spans on its first argument, cartan;
    # a function renamed, or only imported into its module, fails here
    # rather than in a traced benchmark run
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    traced = [(entry.elts[0].value, entry.elts[1].value)
              for entry in _assigned(tracer, "TRACED").elts]
    assert traced
    missing = [(module, name) for module, name in traced
               if getattr(getattr(importlib.import_module(module), name,
                                  None), "__module__", None) != module]
    assert missing == []
    build = importlib.import_module("crystalpoly.polytope").build
    assert next(iter(inspect.signature(build).parameters)) == "cartan"


_DYNAMIC = {"exec", "eval", "compile"}


def _dynamic_code(tree):
    """(enclosing function, name) of every read of exec, eval or compile
    in a module; "" for a read at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if isinstance(child, ast.Name) and child.id in _DYNAMIC:
                    found.append((where, child.id))
                visit(child, where)

    visit(tree, "")
    return found


def test_only_the_kernel_builder_runs_generated_code():
    # the signature kernel is the one source the package compiles; a
    # read of exec, eval or compile anywhere else fails, as does an alias
    assert _dynamic_code(ast.parse(
        "run = exec\ndef f(s):\n    return eval(s)\n")) == \
        [("", "exec"), ("f", "eval")]
    found = {(path.name, where, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for where, name in _dynamic_code(ast.parse(path.read_text()))}
    assert found == {("zcrystal.py", "_scan_kernel", "exec"),
                     ("zcrystal.py", "_scan_kernel", "compile")}


def _shift_calls(tree):
    """The enclosing function of every call of a function or method
    named shift_rows in a module; "" for a call at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                if name == "shift_rows":
                    found.append(where)
            visit(child, where)

    visit(tree, "")
    return found


def test_only_the_table_of_all_rows_shifts_forms():
    # the systems are blocks of row-1 families and shift counts: every
    # reader takes a form's shift as (f, d), and only tables.binf_table,
    # the whole system as one FormSet, makes the shifted forms
    assert _shift_calls(ast.parse(
        "g = f.shift_rows(1)\ndef h(f):\n    return [shift_rows(f, 2)]\n"
        "def k(f):\n    return f.shift_rows\n")) == ["", "h"]
    found = {(path.name, where)
             for path in sorted(PACKAGE.glob("*.py"))
             for where in _shift_calls(ast.parse(path.read_text()))}
    assert found == {("tables.py", "binf_table")}


_INEXACT_MODULES = {"fractions", "decimal"}


def _inexact_arithmetic(tree):
    """(line, what) of every step away from exact integer arithmetic in a
    module: a true division (`/`, `/=`), a float literal, a read of the
    name float, and an import of fractions or decimal."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, float):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] \
                if isinstance(node, ast.ImportFrom) \
                else [alias.name for alias in node.names]
            found.extend((node.lineno, "import " + module)
                         for module in modules
                         if module.split(".")[0] in _INEXACT_MODULES)
    return sorted(found)


def test_the_package_keeps_to_exact_integer_arithmetic():
    # the systems, the oracle and the dimension checks are exact; a float,
    # a true division or a rational type anywhere in src/ fails
    assert _inexact_arithmetic(ast.parse(
        "from fractions import Fraction\nimport decimal, os\n"
        "a = 1 / 2\na /= 2\nb = 7 // 2 + 1e3\nc = float(b)\n"
        "d = {'float': 1}\n")) == \
        [(1, "import fractions"), (2, "import decimal"), (3, "/"),
         (4, "/"), (5, "1000.0"), (6, "float")]
    found = {(path.name, line, what)
             for path in sorted(PACKAGE.glob("*.py"))
             for line, what in _inexact_arithmetic(ast.parse(
                 path.read_text()))}
    assert found == set()
