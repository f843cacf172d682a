import importlib
import pkgutil

import qpcut as qc


def test_every_exported_name_resolves():
    missing = [name for name in qc.__all__ if not hasattr(qc, name)]
    assert missing == []
    assert len(set(qc.__all__)) == len(qc.__all__)


def test_package_exports_are_the_submodule_exports():
    # a name dropped from a submodule cannot linger in the package list, nor
    # a new one be left out of it
    union = set()
    for info in pkgutil.iter_modules(qc.__path__):
        module = importlib.import_module(f"qpcut.{info.name}")
        union.update(getattr(module, "__all__", ()))
    assert union
    assert sorted(qc.__all__) == sorted(union)
