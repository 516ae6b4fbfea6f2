"""The benchmark tracer's hooks: every package name it wraps exists, and
uninstalling puts the original objects back."""
import sys
from pathlib import Path

import negmine.cli  # noqa: F401  (the tracer finds the package's modules in sys.modules)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def package_namespaces():
    """Every loaded negmine module and every class defined at its top level."""
    for name, module in list(sys.modules.items()):
        if name == "negmine" or name.startswith("negmine."):
            yield module
            yield from (v for v in vars(module).values() if isinstance(v, type))


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    before = {id(ns): (ns, dict(vars(ns))) for ns in package_namespaces()}
    tracer = spans.Tracer("t")
    try:
        tracer.install()
        wrapped = [(owner, attr) for owner, attr, _ in tracer._patches]
        replaced = [vars(owner)[attr] is not before[id(owner)][1][attr] for owner, attr in wrapped]
    finally:
        tracer.uninstall()
    assert wrapped and all(replaced)
    for ns, names in before.values():
        for attr, original in names.items():
            assert vars(ns).get(attr) is original, f"{ns.__name__}.{attr} not restored"
