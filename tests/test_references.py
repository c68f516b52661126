"""Every function, class and method that src/jetgauge defines is used somewhere.

Uses are read from the syntax trees of the Python files under src/, tests/,
scripts/ and perfbench/, so words in docstrings and comments do not count.
A function or class counts as used through a name (a call, a reference or
an import of it) or an attribute access such as `dynamics.field_strength_em`;
so does a public module-level constant such as `proca.H_INTS`.
A method counts only through an attribute access (`m.label(4)`), or through
a perfbench span string such as "LieElement.bracket".  An attribute read
off a module imported from outside jetgauge (`np.zeros`, `math.isfinite`)
is no use of a jetgauge name.  Dunder methods are exempt: Python calls
them.  A name that fails here is used nowhere and can go.
A name that only tests/ reaches belongs in the test that needs it.  The
names that only a perfbench span string keeps alive are pinned, so that no
new one slips in.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCHED = ("src", "tests", "scripts", "perfbench")


def syntax_trees(top):
    """(file name, syntax tree) of every Python file under top."""
    for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    yield name, ast.parse(fh.read())


def definitions(modules):
    """(module, name, is_method) for every non-dunder def and class, and
    every public name a module-level assignment binds, in the (module,
    tree) pairs given."""
    for module, tree in modules:
        methods = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[item] = f"{node.name}.{item.name}"
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield module, methods.get(node, node.name), node in methods
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield module, target.id, False


def foreign_modules(tree):
    """Names that `import` binds to modules outside jetgauge."""
    return {alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.partition(".")[0] != "jetgauge"}


def references(trees):
    """Names read or imported (not assigned), attribute names not read off
    a foreign module, and perfbench strings, from (top, tree) pairs."""
    names, attributes, spans = set(), set(), set()
    for top, tree in trees:
        foreign = foreign_modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in foreign):
                    attributes.add(node.attr)
            elif top == "perfbench" and isinstance(node, ast.Constant):
                if isinstance(node.value, str):
                    spans.add(node.value)
    return names, attributes, spans


def searched_trees(searched):
    return [(top, tree) for top in searched for _, tree in syntax_trees(top)]


def unused_definitions(trees, modules=None, with_spans=True):
    """The definitions of modules (default: src/jetgauge) that the (top,
    tree) pairs do not reach; without with_spans, perfbench span strings
    reach nothing."""
    names, attributes, spans = references(trees)
    if not with_spans:
        spans = set()
    unused = []
    for module, name, is_method in definitions(modules or syntax_trees("src/jetgauge")):
        short = name.rpartition(".")[2]
        used = short in attributes or name in spans
        if not is_method:
            used = used or short in names
        if not used:
            unused.append(f"{module}: {name}")
    return unused


def test_every_defined_name_is_referenced():
    unused = unused_definitions(searched_trees(SEARCHED))
    assert not unused, f"defined but referenced nowhere: {unused}"


# names the documentation cites, kept although only tests call them
DOCUMENTED = {
    "pheno.py: Constants.table_inputs",  # README and DECISIONS.md name it
}


def test_no_definition_is_reached_only_by_tests():
    program = tuple(top for top in SEARCHED if top != "tests")
    test_only = set(unused_definitions(searched_trees(program))) - DOCUMENTED
    assert not test_only, f"referenced only by tests: {sorted(test_only)}"


# definitions that src/, scripts/ and perfbench/ reach only through a
# perfbench span string: they stay in src/ for the benchmark alone
SPAN_ONLY = {
    "exactnum.py: ExactMatrix.det",
    "exactnum.py: solve_exact",
    "liealg.py: killing_adjoint_in_basis",
    "liealg.py: so_generator",
    "octonion.py: ad_matrix",
    "octonion.py: so7_decompose",  # verify-all splits so(7) by So7Split's projection
}


def test_the_definitions_only_perfbench_spans_keep_are_pinned():
    program = searched_trees(tuple(top for top in SEARCHED if top != "tests"))
    span_only = (set(unused_definitions(program, with_spans=False))
                 - set(unused_definitions(program)))
    assert span_only == SPAN_ONLY


def test_a_method_read_only_off_a_foreign_module_is_unused():
    module = ast.parse("class Matrix:\n    def zeros(self):\n        pass\n")
    foreign = ast.parse("import numpy as np\nimport os.path\nnp.zeros(3)\nos.path.zeros\n")
    local = ast.parse("from jetgauge import m\nm.Matrix().zeros()\n")
    assert unused_definitions([("src", foreign)], [("m.py", module)]) == [
        "m.py: Matrix", "m.py: Matrix.zeros"]
    assert unused_definitions([("src", local)], [("m.py", module)]) == []
