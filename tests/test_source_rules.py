"""Rules the package source keeps: no threads and no environment reads.

Pure-Python Fraction work holds the GIL, so a thread pool only slows the
exact suites down; and a report must depend on its command line alone,
not on the environment it runs in.
"""

import ast
from pathlib import Path

import courantlab

SOURCES = sorted(Path(courantlab.__file__).parent.glob("*.py"))
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
