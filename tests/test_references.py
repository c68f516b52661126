"""Every function, class and method that src/jetgauge defines is used somewhere.

A name counts as used when it occurs, as a whole word, anywhere in the
Python files under src/, tests/, scripts/ or perfbench/ other than in a
`def` or `class` line that defines it.  Dunder methods are exempt: Python
calls them.  A name that fails here is referenced nowhere and can go.
"""

import ast
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCHED = ("src", "tests", "scripts", "perfbench")


def python_sources(top):
    for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    yield fh.read()


def defined_names():
    package = os.path.join(ROOT, "src", "jetgauge")
    for module in sorted(os.listdir(package)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(package, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield module, node.name


def test_every_defined_name_is_referenced():
    text = "\n".join(src for top in SEARCHED for src in python_sources(top))
    words = Counter(re.findall(r"\w+", text))
    definitions = Counter(re.findall(r"\b(?:def|class)\s+(\w+)", text))
    unused = [f"{module}: {name}" for module, name in defined_names()
              if words[name] <= definitions[name]]
    assert not unused, f"defined but referenced nowhere: {unused}"
