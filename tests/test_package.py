"""The package's public names: each module's __all__, re-exported once."""

import subprocess
import sys
from pathlib import Path

import doubleflow
from doubleflow import dynamics, groups, poisson, quadrature, verify

MODULES = (dynamics, groups, poisson, quadrature, verify)


def test_package_all_is_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert sorted(doubleflow.__all__) == sorted([*names, "__version__"])
    assert len(set(doubleflow.__all__)) == len(doubleflow.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(doubleflow, name) is getattr(module, name), (module.__name__, name)


def test_package_import_leaves_cli_and_scipy_unloaded():
    # a fresh interpreter: this one has loaded both
    src = str(Path(doubleflow.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import doubleflow; "
            "print(sorted(m for m in ('doubleflow.cli', 'scipy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         encoding="utf-8", check=True).stdout
    assert out == "[]\n"
