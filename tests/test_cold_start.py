"""Cold start: the exact commands and a bare ``import coinwords`` load no numpy,
and no ``dataclasses`` or ``inspect`` either.

pytest has imported numpy long before these tests run, so each check starts
a fresh interpreter with PYTHONPATH set to this tree's src/.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def imported_modules(importtime_log):
    """Module names listed by ``python -X importtime`` on stderr."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:") and "|" in line
    }


EXACT_COMMANDS = [
    ("tail", "HTH", "22"),
    ("stats", "HTHT"),
    ("threshold", "HHH", "1e-100"),
    ("counts", "HTHT", "20", "--engine", "automaton"),
    ("gf", "HTH", "--m", "8"),
    ("table", "--format", "csv"),
]


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_command_loads_no_numpy(argv):
    proc = run_python("-X", "importtime", "-m", "coinwords.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    modules = imported_modules(proc.stderr)
    assert "coinwords.stats" in modules  # the log was read
    assert not [m for m in modules if m.split(".")[0] == "numpy"]


@pytest.mark.parametrize(
    "args",
    [("-m", "coinwords.cli", *argv) for argv in EXACT_COMMANDS] + [("-c", "import coinwords")],
    ids=" ".join,
)
def test_cold_path_loads_no_dataclasses(args):
    proc = run_python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    modules = imported_modules(proc.stderr)
    assert "coinwords.stats" in modules  # the log was read
    assert "dataclasses" not in modules and "inspect" not in modules


def test_bare_import_loads_no_numpy():
    proc = run_python("-X", "importtime", "-c", "import coinwords")
    assert proc.returncode == 0, proc.stderr
    modules = imported_modules(proc.stderr)
    assert "coinwords" in modules
    assert "numpy" not in modules
    assert "coinwords.closedform" not in modules and "coinwords.montecarlo" not in modules


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "HTH", "--trials", "2000", "--seed", "3"),
        ("verify",),
        ("counts", "HTH", "8", "--engine", "brute"),
    ],
    ids=" ".join,
)
def test_numpy_commands_still_run_cold(argv):
    proc = run_python("-m", "coinwords.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def check_after_bare_import(code):
    proc = run_python("-c", "import coinwords\n" + code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_lazy_submodules_resolve():
    out = check_after_bare_import(
        "import sys\n"
        "assert 'coinwords.montecarlo' not in sys.modules\n"
        "print(coinwords.montecarlo.run_trials.__module__)\n"
        "print(coinwords.closedform.solve_denominator.__module__)\n"
    )
    assert out.split() == ["coinwords.montecarlo", "coinwords.closedform"]


def test_every_export_is_its_home_object():
    out = check_after_bare_import(
        "import importlib\n"
        "served = {name: getattr(coinwords, name) for name in coinwords.__all__}\n"
        "homes = {}\n"
        "for short in ('words', 'counting', 'genfun', 'stats', 'closedform', 'montecarlo'):\n"
        "    module = importlib.import_module('coinwords.' + short)\n"
        "    homes.update((name, module) for name in module.__all__)\n"
        "for name, value in served.items():\n"
        "    assert value is getattr(homes[name], name), name\n"
        "print(len(coinwords.__all__))\n"
    )
    assert int(out) == 36


def test_star_import_binds_all():
    out = check_after_bare_import(
        "namespace = {}\n"
        "exec('from coinwords import *', namespace)\n"
        "missing = [n for n in coinwords.__all__ if n not in namespace]\n"
        "assert not missing, missing\n"
        "assert namespace['run_trials'] is coinwords.montecarlo.run_trials\n"
        "assert namespace['ClosedFormModel'] is coinwords.closedform.ClosedFormModel\n"
        "print('ok')\n"
    )
    assert out.strip() == "ok"


def test_unknown_attribute_raises():
    out = check_after_bare_import(
        "try:\n"
        "    coinwords.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out.strip() == "module 'coinwords' has no attribute 'no_such_name'"
