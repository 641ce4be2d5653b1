"""The package namespace and the command line's cold start.

``import qcondprob`` loads no submodule: each public name's home module
is imported on its first access.  A command-line run loads only the
modules its subcommand uses.  The cold-start tests run in a fresh
interpreter, so ``sys.modules`` holds nothing the test run imported.
"""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import qcondprob

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(qcondprob.__file__)))

_BASE = {"errors", "tolerances", "events", "conditioning", "io", "cli"}
_PAIR = ["--outcome", "fixtures/objective_pair_d.json", "--event", "fixtures/objective_pair_e.json"]

# subcommand -> (argv on a fixture, the qcondprob submodules that the run leaves loaded)
LOADS = {
    "condprob": (["condprob", "--state", "fixtures/state_mixed_dim4.json", *_PAIR], _BASE),
    "objective": (["objective", *_PAIR], _BASE | {"objective"}),
    "chain": (["chain", "--scenario", "fixtures/chain_detector.json", "--record", "positive", "--sample",
               "--trials", "1000"], _BASE | {"experiments"}),
    "slit": (["slit", "--model", "fixtures/double_slit_dim8.json"], _BASE | {"interference"}),
    "valuation": (["valuation", "--problem", "fixtures/kochen_specker_18.json"], _BASE | {"valuation"}),
}

# Prints the exit code (None without a command line) and the loaded qcondprob submodules as JSON.
_PROBE = """
import contextlib, io, json, sys
import qcondprob
code = None
if len(sys.argv) > 1:
    from qcondprob import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m[len("qcondprob."):] for m in sys.modules if m.startswith("qcondprob."))]))
"""


def _fresh_run(*argv):
    """Exit code and loaded submodules of a probe run in a new interpreter, from the repository root."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [PACKAGE_PARENT, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=REPO_ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    return code, set(loaded)


def test_importing_the_package_loads_no_submodule():
    assert _fresh_run() == (None, set())


@pytest.mark.parametrize("subcommand", sorted(LOADS))
def test_each_subcommand_loads_only_the_modules_it_uses(subcommand):
    argv, expected = LOADS[subcommand]
    assert _fresh_run(*argv) == (0, expected)


def test_every_public_name_is_the_object_of_its_home_module():
    for name in qcondprob.__all__:
        home = importlib.import_module(f"qcondprob.{qcondprob._HOME[name]}")
        obj = getattr(qcondprob, name)
        assert obj is getattr(home, name), name
        # The table names the module that defines the object, not one that re-exports it.
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name


def test_dir_covers_all():
    assert set(qcondprob.__all__) <= set(dir(qcondprob))
    assert qcondprob.__all__ == sorted(set(qcondprob.__all__))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qcondprob import *", namespace)
    assert {name: namespace[name] for name in qcondprob.__all__} == {
        name: getattr(qcondprob, name) for name in qcondprob.__all__
    }


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcondprob.no_such_name
    assert not hasattr(qcondprob, "no_such_name")
    with pytest.raises(ImportError):
        exec("from qcondprob import no_such_name", {})


def test_submodules_import_from_the_package():
    from qcondprob import events, io

    assert isinstance(events, types.ModuleType) and events.__name__ == "qcondprob.events"
    assert isinstance(io, types.ModuleType) and io.__name__ == "qcondprob.io"
    assert io.load_event is sys.modules["qcondprob.io"].load_event
