"""The benchmark tracer's wrapped names still exist in the program.

``perfbench/tracing.py`` times layers by replacing module attributes under the
names their callers resolve.  Moving or deleting one of those names breaks a
traced benchmark run even when every output is unchanged, so this test checks
each pair here, with the tracer's own table loaded from its file, and that every
import kept only for the tracer (marked ``# noqa: F401``) names one of those pairs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("span,module_name,attr", _wrapped())
def test_wrapped_name_resolves_to_a_callable(span, module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), (span, module_name, attr)


def _marked_imports():
    # (module, name) of every src/gradpower import whose line carries "# noqa: F401":
    # a name imported only so that the tracer can wrap it under this module
    src = Path(__file__).resolve().parent.parent / "src" / "gradpower"
    marked = []
    for path in sorted(src.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if "# noqa: F401" in lines[alias.lineno - 1]:
                        marked.append((f"gradpower.{path.stem}", alias.asname or alias.name))
    return marked


def test_marked_imports_are_found():
    assert set(_marked_imports()) >= {
        ("gradpower.localpower", "nc_chisq_cdf"),
        ("gradpower.expansion", "nc_chisq_cdf"),
        ("gradpower.teststats", "central_chisq_cdf"),
    }


@pytest.mark.parametrize("module_name,attr", _marked_imports())
def test_marked_import_is_wrapped(module_name, attr):
    # no tracer-only import outlives its entry in the tracer's table
    assert (module_name, attr) in {(m, a) for _, m, a in _wrapped()}
