import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_lists_each_module_all():
    # README's Python API section has one bullet per module, "- `module`: `name`, ...",
    # possibly wrapped onto indented lines; each must list that module's __all__ in order
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for bullet in re.split(r"\n(?=- )", section):
        head = re.match(r"- `(\w+)`: ", bullet)
        if head:
            listed[head.group(1)] = re.findall(r"`(\w+)`", bullet[head.end():].split("\n\n", 1)[0])
    modules = sorted(m.name for m in pkgutil.iter_modules(stlcbf.__path__) if m.name != "cli")
    assert sorted(listed) == modules
    for mod, names in listed.items():
        assert names == importlib.import_module(f"stlcbf.{mod}").__all__, mod
