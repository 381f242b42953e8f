"""The benchmark tracer's wrap sites still name real attributes of tailkit.

``benchmarks/spans.py`` wraps tailkit functions by module attribute, so a
rename in ``src/`` would otherwise only show up as a crashed traced run.
This reads its site table without installing any wrapper.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = [(name, module, attr) for name, module, attr in load_spans().SPAN_SITES
         if module is not None]


def test_site_table_is_not_empty():
    assert SITES


@pytest.mark.parametrize("name,module_path,attr_path", SITES, ids=[s[0] for s in SITES])
def test_span_site_resolves(name, module_path, attr_path):
    owner = importlib.import_module(module_path)
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"{name}: {module_path}.{attr_path} is gone"
        owner = getattr(owner, part)
    assert callable(owner)
