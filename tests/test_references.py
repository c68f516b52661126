"""Every function, class and method that src/jetgauge defines is used somewhere.

Uses are read from the syntax trees of the Python files under src/, tests/,
scripts/ and perfbench/, so words in docstrings and comments do not count.
A function or class counts as used through a name (a call, a reference or
an import of it) or an attribute access such as `dynamics.field_strength_em`;
so does a public module-level constant such as `proca.H_INTS`.
A method counts only through an attribute access (`m.label(4)`), or through
a perfbench span string such as "LieElement.bracket".  Dunder methods are
exempt: Python calls them.  A name that fails here is used nowhere and can go.
A name that only tests/ reaches belongs in the test that needs it.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCHED = ("src", "tests", "scripts", "perfbench")


def syntax_trees(top):
    for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    yield ast.parse(fh.read())


def definitions():
    """(module, name, is_method) for every non-dunder def and class, and
    every public name a module-level assignment binds."""
    package = os.path.join(ROOT, "src", "jetgauge")
    for module in sorted(os.listdir(package)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(package, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
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


def references(searched):
    """Names read or imported (not assigned), attribute names, and perfbench
    strings."""
    names, attributes, spans = set(), set(), set()
    for top in searched:
        for tree in syntax_trees(top):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif top == "perfbench" and isinstance(node, ast.Constant):
                    if isinstance(node.value, str):
                        spans.add(node.value)
    return names, attributes, spans


def unused_definitions(searched=SEARCHED):
    names, attributes, spans = references(searched)
    unused = []
    for module, name, is_method in definitions():
        short = name.rpartition(".")[2]
        used = short in attributes or name in spans
        if not is_method:
            used = used or short in names
        if not used:
            unused.append(f"{module}: {name}")
    return unused


def test_every_defined_name_is_referenced():
    unused = unused_definitions()
    assert not unused, f"defined but referenced nowhere: {unused}"


# names the documentation cites, kept although only tests call them
DOCUMENTED = {
    "pheno.py: Constants.table_inputs",  # README and DECISIONS.md name it
}


def test_no_definition_is_reached_only_by_tests():
    program = tuple(top for top in SEARCHED if top != "tests")
    test_only = set(unused_definitions(program)) - DOCUMENTED
    assert not test_only, f"referenced only by tests: {sorted(test_only)}"
