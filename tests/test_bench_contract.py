"""The names the benchmark in perfbench/ binds or rebinds in the package.

perfbench/tracing.py imports only the standard library, so its tables
are read here directly. The benchmark's own loader is not used: it
reimports the package, which would replace the modules other tests
hold.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dvlg import periodic, syntax
from dvlg.parser import parse
from dvlg.selfcheck import eval_qf_periodic

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_T = _tracing()

# the benchmark's other reads of the package (perfbench/run.py, workloads.py)
OTHER_NAMES = [
    ("oracle", "eval_qf"),
    ("oracle", "Assignment"),
    ("selfcheck", "eval_qf_periodic"),
    ("selfcheck", "is_purely_existential_g"),
    ("corpus", "reduce"),
    ("corpus", "gen_tplus_corpus"),
    ("corpus", "load_known_answers"),
    ("standard", "FinStdStructure"),
    ("standard", "FinStdStructure.all_subsets"),
    ("standard", "GroupVector"),
    ("syntax", "free_vars"),
    ("errors", "ResourceLimit"),
    ("errors", "DepthExceeded"),
]

# BENCH_CALLS names each call's layer, which is the module defining it
NAMES = (
    [(layer, name) for name, layer in _T.BENCH_CALLS.items()]
    + [(mod, name) for mod, table in _T.REBIND.items() for name in table]
    + OTHER_NAMES
)


@pytest.mark.parametrize("module, name", NAMES)
def test_name_exists_and_is_callable(module, name):
    obj = importlib.import_module(f"dvlg.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_periodic_rebinding_reaches_the_evaluator(monkeypatch):
    """The tracer rebinds the periodic module's functions; the periodic
    model must call them through the module at call time."""
    seen = set()
    for name in _T.REBIND["periodic"]:
        fn = getattr(periodic, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            seen.add(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(periodic, name, counted)
    phi = parse(
        "P(2*(a + -b) meet a) cap compl(P(b)) << P(a) & a <= b",
        {"a": "G", "b": "G"},
    )
    env = {"a": periodic.normalize(1, [1, -2]), "b": periodic.normalize(0, [3])}
    assert syntax.holds(periodic.PERIODIC, env, env, phi) == eval_qf_periodic(env, phi)
    assert seen == set(_T.REBIND["periodic"])
