"""Cold start: every command, and a bare ``import coinwords``, loads no numpy,
except a ``simulate`` past montecarlo's bound of expected work, which does;
the exact commands, ``verify`` and a bare import load no ``dataclasses`` or
``inspect`` either; the exact commands and a ``simulate`` within the bound
load no ``threading``; a bare import loads no submodule, and each command
only the submodules it uses.

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


# Runs ``python -m MODULE ARGS...`` or ``python -c CODE`` from the rest of its
# arguments, and at exit writes the names in sys.modules, one a line, to the
# file named by its first.  The ``-X importtime`` log cannot stand in: it
# omits every module loaded through ``importlib.import_module``.
PROBE = """\
import atexit, runpy, sys
_, path, flag, target, *rest = sys.argv
atexit.register(lambda: open(path, "w").write("\\n".join(sys.modules)))
sys.argv = [target, *rest]
if flag == "-c":
    exec(target, {"__name__": "__main__"})
else:
    runpy.run_module(target, run_name="__main__", alter_sys=True)
"""


def loaded_modules(tmp_path, *args, flags=()):
    """The names in sys.modules when ``python *flags *args`` exits (args start with -m or -c)."""
    path = tmp_path / "modules.txt"
    proc = run_python(*flags, "-c", PROBE, str(path), *args)
    assert proc.returncode == 0, proc.stderr
    return set(path.read_text().split())


EXACT_COMMANDS = [
    ("tail", "HTH", "22"),
    ("stats", "HTHT"),
    ("threshold", "HHH", "1e-100"),
    ("counts", "HTHT", "20", "--engine", "automaton"),
    ("gf", "HTH", "--m", "8"),
    ("table", "--format", "csv"),
]


# Commands past the exact layers that still run without numpy.
CHECK_COMMANDS = [
    ("verify",),
    ("verify", "--full", "--format", "json"),
    ("counts", "HTH", "8", "--engine", "brute"),
]


# simulate runs of at most montecarlo._SCALAR_BLOCKS = 8192 expected toss
# blocks, scanned in Python ints: 7084 trials of HTH are 8190.9 blocks
SMALL_SIMULATE = [
    ("simulate", "HTH", "--trials", "4000", "--seed", "3"),
    ("simulate", "HTHH", "--trials", "4000", "--seed", "3", "--format", "csv"),
    ("simulate", "HTH", "--trials", "7084", "--seed", "3", "--workers", "2"),
]


@pytest.mark.parametrize(
    "argv", EXACT_COMMANDS + CHECK_COMMANDS + SMALL_SIMULATE, ids=" ".join
)
def test_exact_command_loads_no_numpy(tmp_path, argv):
    modules = loaded_modules(tmp_path, "-m", "coinwords.cli", *argv)
    assert "coinwords.stats" in modules  # the probe ran the command
    assert not [m for m in modules if m.split(".")[0] == "numpy"]


@pytest.mark.parametrize("argv", EXACT_COMMANDS + SMALL_SIMULATE, ids=" ".join)
def test_exact_command_loads_no_threading(tmp_path, argv):
    # -S: without site, whose .pth files may import threading on their own
    modules = loaded_modules(tmp_path, "-m", "coinwords.cli", *argv, flags=("-S",))
    assert "coinwords.stats" in modules  # the probe ran the command
    assert "threading" not in modules


COLD_PATHS = [("-m", "coinwords.cli", *argv) for argv in EXACT_COMMANDS + [("verify",)]] + [
    ("-c", "import coinwords")
]


@pytest.mark.parametrize("args", COLD_PATHS, ids=" ".join)
def test_cold_path_loads_no_dataclasses(tmp_path, args):
    modules = loaded_modules(tmp_path, *args)
    assert "coinwords" in modules  # the probe ran the command
    assert "dataclasses" not in modules and "inspect" not in modules


@pytest.mark.parametrize("args", COLD_PATHS, ids=" ".join)
def test_cold_path_loads_only_the_submodules_it_uses(tmp_path, args):
    """A bare import loads no submodule; each exact command loads words,
    counting and stats, gf loads genfun as well, and verify genfun,
    closedform and verify."""
    modules = loaded_modules(tmp_path, *args)
    loaded = {m for m in modules if m.split(".")[0] == "coinwords"}
    if args[0] == "-c":
        assert loaded == {"coinwords"}
    else:
        extra = {"gf": ("genfun",), "verify": ("genfun", "closedform", "verify")}
        exact = {"coinwords", "coinwords.words", "coinwords.counting", "coinwords.stats"}
        assert loaded == exact | {f"coinwords.{m}" for m in extra.get(args[2], ())}


def test_bare_import_loads_no_numpy(tmp_path):
    modules = loaded_modules(tmp_path, "-c", "import coinwords")
    assert "coinwords" in modules
    assert "numpy" not in modules
    assert "coinwords.closedform" not in modules and "coinwords.montecarlo" not in modules


# past the bound: 7085 trials of HTH are 8192.03 expected blocks, the default
# 100000 trials 115625
@pytest.mark.parametrize(
    "argv",
    [("simulate", "HTH", "--seed", "3"), ("simulate", "HTH", "--trials", "7085", "--seed", "3")],
    ids=" ".join,
)
def test_numpy_commands_still_run_cold(tmp_path, argv):
    path = tmp_path / "modules.txt"
    proc = run_python("-c", PROBE, str(path), "-m", "coinwords.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "numpy" in path.read_text().split()


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


def test_dir_lists_every_export():
    import coinwords

    assert set(coinwords.__all__) <= set(dir(coinwords))


def test_export_reads_its_loaded_submodule_each_time(monkeypatch):
    import coinwords
    import coinwords.stats

    assert coinwords.tail is coinwords.stats.tail
    assert "tail" not in vars(coinwords)  # served, not cached in the package
    # a binding replaced in the submodule, and put back, shows through
    wrapper = object()
    monkeypatch.setattr(coinwords.stats, "tail", wrapper)
    assert coinwords.tail is wrapper
    monkeypatch.undo()
    assert coinwords.tail is coinwords.stats.tail
