import importlib
import pkgutil

import stlcbf


def test_package_surface_is_the_union_of_module_lists():
    # every module but the command line contributes its __all__
    modules = sorted(m.name for m in pkgutil.iter_modules(stlcbf.__path__) if m.name != "cli")
    names = stlcbf.__all__
    assert len(names) == len(set(names))
    union = []
    for mod in modules:
        module = importlib.import_module(f"stlcbf.{mod}")
        union += module.__all__
        for name in module.__all__:
            assert getattr(stlcbf, name) is getattr(module, name), name
    assert sorted(names) == sorted(union)
    # the package attribute is the monitor function, not its module
    assert stlcbf.robustness is importlib.import_module("stlcbf.robustness").robustness
    assert callable(stlcbf.robustness)
