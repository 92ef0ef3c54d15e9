"""The package namespace: the names of the closed-form families and of the
quadratic-surd case resolve on first use, to the same objects as in their
modules, and are listed with every other public name."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permutiple

DEFERRED = sorted(permutiple._DEFERRED.items())


@pytest.mark.parametrize("name, module", DEFERRED, ids=[name for name, _ in DEFERRED])
def test_a_deferred_name_is_the_object_of_its_module(name, module):
    home = importlib.import_module(f"permutiple.{module}")
    assert getattr(permutiple, name) is (home if name == module else getattr(home, name))


def test_every_deferred_name_is_listed_and_star_imported():
    assert set(permutiple._DEFERRED) <= set(dir(permutiple))
    assert set(permutiple._DEFERRED) <= set(permutiple.__all__)
    namespace = {}
    exec("from permutiple import *", namespace)
    for name in permutiple._DEFERRED:
        assert namespace[name] is getattr(permutiple, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        permutiple.no_such_name


def test_deferred_modules_load_on_first_use_in_a_fresh_interpreter():
    # classify and concat name both a module and a function: importing the
    # modules again must leave the package attributes bound to the functions
    src = str(Path(permutiple.__file__).parents[1])
    code = "\n".join(
        [
            "import sys",
            "import permutiple, permutiple.classify, permutiple.concat",
            "loaded = lambda: [m for m in ('constructors', 'surd') if 'permutiple.' + m in sys.modules]",
            "assert loaded() == [], loaded()",
            "assert permutiple.classify is sys.modules['permutiple.classify'].classify",
            "assert permutiple.concat is sys.modules['permutiple.concat'].concat",
            "assert permutiple.two_digit(2, 3).k == 2",
            "assert loaded() == ['constructors'], loaded()",
            "from permutiple import surd",
            "assert surd is sys.modules['permutiple.surd'] and loaded() == ['constructors', 'surd']",
            "assert permutiple.classify is sys.modules['permutiple.classify'].classify",
        ]
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=60, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_no_module_loads_dataclasses_or_inspect():
    # the records are plain classes: dataclasses would load inspect, and with
    # it ast, dis and tokenize, at every start-up
    src = str(Path(permutiple.__file__).parents[1])
    code = (
        "import sys, permutiple.constructors, permutiple.surd; "
        "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=60, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == (0, "\n"), done.stderr
