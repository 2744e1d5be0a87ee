"""Every program name the benchmark harness uses still exists.

``perfbench/`` reaches the program through module attributes
(``montecarlo.simulate``), through a module paired with a function's name for a
later ``getattr``, through keywords of ``SimulationConfig`` and ``PowerQuery``,
and through ``dataclasses.replace`` on a report or a model.  Renaming any of
these breaks a benchmark run while every tier-1 output stays the same, so these
tests read each harness file's syntax tree, without importing or changing it,
and look each name up in the program.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from gradpower.expfam import ExpFamModel
from gradpower.localpower import PowerQuery
from gradpower.montecarlo import SimulationConfig, SimulationReport

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "expansion", "expfam", "localpower", "montecarlo", "specfun", "teststats")
CONSTRUCTORS = {"SimulationConfig": SimulationConfig, "PowerQuery": PowerQuery}


def _trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PERFBENCH.glob("*.py"))]


def _aliases(tree):
    # local name -> module, for `import gradpower` and `from gradpower import <module>`
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "gradpower":
                    aliases[alias.asname or alias.name] = "gradpower"
        elif isinstance(node, ast.ImportFrom) and node.module == "gradpower":
            for alias in node.names:
                if alias.name in MODULES:
                    aliases[alias.asname or alias.name] = f"gradpower.{alias.name}"
    return aliases


def _names_used():
    # (file, module, name) of every program attribute a harness file reads, every
    # (module, "name") pair it hands to getattr, and every name it imports from a module
    used = set()
    for file, tree in _trees():
        aliases = _aliases(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add((file, aliases[node.value.id], node.attr))
            elif isinstance(node, ast.Tuple):
                for a, b in zip(node.elts, node.elts[1:]):
                    if (isinstance(a, ast.Name) and a.id in aliases
                            and isinstance(b, ast.Constant) and isinstance(b.value, str)):
                        used.add((file, aliases[a.id], b.value))
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "gradpower"):
                for alias in node.names:
                    if alias.name not in MODULES:
                        used.add((file, node.module, alias.name))
    return sorted(used)


def _callee(func):
    # "module.name" or "name" of a call's callee
    if isinstance(func, ast.Attribute):
        return f"{func.value.id}.{func.attr}" if isinstance(func.value, ast.Name) else func.attr
    return getattr(func, "id", "")


def _calls(match):
    # (file, callee's last name, call) of every call whose callee satisfies match
    for file, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and match(_callee(node.func)):
                yield file, _callee(node.func).rpartition(".")[2], node


def _constructor_keywords():
    return sorted({(file, name, kw.arg)
                   for file, name, call in _calls(lambda c: c.rpartition(".")[2] in CONSTRUCTORS)
                   for kw in call.keywords}, key=str)  # a **mapping's keyword is None


def test_the_harness_is_read():
    used = {(module, name) for _, module, name in _names_used()}
    assert used >= {
        ("gradpower.montecarlo", "simulate"),
        ("gradpower.montecarlo", "SimulationConfig"),
        ("gradpower.localpower", "power_difference"),
        ("gradpower.expfam", "sample"),
        ("gradpower.teststats", "TestKind"),
        ("gradpower", "TestKind"),
    }
    keywords = {(cls, kw) for _, cls, kw in _constructor_keywords()}
    assert {("SimulationConfig", "workers"), ("PowerQuery", "alpha")} <= keywords


@pytest.mark.parametrize("file,module_name,name", _names_used())
def test_used_name_resolves(file, module_name, name):
    assert hasattr(importlib.import_module(module_name), name), (file, module_name, name)


@pytest.mark.parametrize("file,cls,keyword", _constructor_keywords())
def test_keyword_is_a_parameter(file, cls, keyword):
    # a **mapping would hide its names from this check
    assert keyword is not None, (file, cls)
    assert keyword in inspect.signature(CONSTRUCTORS[cls]).parameters, (file, cls, keyword)


def test_replaced_fields_exist():
    # the harness replaces workers on a report and the sampler on a model
    keywords = {kw.arg for _, _, call in _calls(lambda c: c == "dataclasses.replace")
                for kw in call.keywords}
    assert "workers" in keywords
    fields = {f.name for cls in (SimulationReport, ExpFamModel) for f in dataclasses.fields(cls)}
    assert "workers" in {f.name for f in dataclasses.fields(SimulationReport)}
    assert keywords <= fields
