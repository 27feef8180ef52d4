"""Guards on how the package is built: what it exports, what a fresh start
imports, and NamedTuple defaults."""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from collections.abc import MutableMapping, MutableSequence, MutableSet

import fairsim

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_package_exports_only_the_documented_api():
    # README's library example; everything else is imported from its module
    names = {name for name in vars(fairsim) if not name.startswith("__")}
    submodules = {name for name in names if getattr(fairsim, name) is sys.modules.get(f"fairsim.{name}")}
    assert names - submodules == {"parse_scenario", "run_scenario"}


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # together they cost about a third of a fresh start; -S keeps site-packages
    # start-up hooks out of what is measured
    code = (
        "import sys, fairsim.cli\n"
        "fairsim.cli.parse_scenario(fairsim.cli.builtin_scenario('goodbad-laggard'))\n"
        "print(__import__('json').dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _namedtuple_classes():
    for info in pkgutil.iter_modules(fairsim.__path__):
        module = importlib.import_module(f"fairsim.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__:
                yield obj


def test_no_namedtuple_field_defaults_to_a_mutable_container():
    # a NamedTuple default is one object shared by every instance
    checked = set()
    for cls in _namedtuple_classes():
        for field, default in cls._field_defaults.items():
            assert not isinstance(default, (MutableMapping, MutableSequence, MutableSet)), (cls, field)
        checked.add(cls.__name__)
    assert {"ProcessSpec", "GenesisConfig", "GoodBad", "Message", "RunResult", "FairnessReport"} <= checked
