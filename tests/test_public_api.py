"""The package namespace is README's library example plus the error classes.

Everything else is imported from its module (iplt.wire, iplt.matrix, ...),
so the namespace holds exactly what README documents.
"""

import re
import types
from pathlib import Path

import iplt
from iplt import errors

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
EXAMPLE = re.search(r"^```python\n(.*?)^```", README, re.S | re.M).group(1)
README_NAMES = set(re.findall(r"\biplt\.(\w+)", EXAMPLE))
ERRORS = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.IpltError)
}
# What the import system sets on a package loaded from a file.
MODULE_ATTRIBUTES = {
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
    "__name__", "__package__", "__path__", "__spec__",
}


def test_readme_example_runs():
    """README's library example runs as written, asserts included."""
    exec(compile(EXAMPLE, "README.md", "exec"), {})


def test_namespace_is_the_readme_api_and_the_errors():
    """Every name in iplt is used by README's example, is an IpltError
    subclass, is a submodule or is set by the import system; and every
    IpltError subclass in iplt.errors is exported."""
    assert README_NAMES >= {"build_query", "answer", "recover"}
    submodules = {
        name
        for name, obj in vars(iplt).items()
        if isinstance(obj, types.ModuleType) and obj.__name__ == f"iplt.{name}"
    }
    assert set(dir(iplt)) - submodules - MODULE_ATTRIBUTES == README_NAMES | ERRORS
    for name in ERRORS:
        assert getattr(iplt, name) is getattr(errors, name)
