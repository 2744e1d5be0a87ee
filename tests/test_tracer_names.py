"""The benchmark tracer's wrapped names still exist in the program.

``perfbench/tracing.py`` times layers by replacing module attributes under the
names their callers resolve.  Moving or deleting one of those names breaks a
traced benchmark run even when every output is unchanged, so this test checks
each pair here, with the tracer's own table loaded from its file.
"""

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
