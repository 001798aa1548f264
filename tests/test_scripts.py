"""Smoke tests: the scripts under scripts/ run to completion on the current API."""

import importlib
import json
import os
import subprocess
import sys

from coinwords.montecarlo import EmpiricalSummary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_reproduce_tables():
    proc = run_script("reproduce_tables.py")
    assert proc.returncode == 0, proc.stderr
    assert "HTH  mean=10  variance=58" in proc.stdout
    assert "certified horizon" in proc.stdout


def test_simulate_check():
    proc = run_script("simulate_check.py", "--trials", "2000", "--workers", "1")
    assert proc.returncode == 0, proc.stderr
    assert "trials=2000" in proc.stdout
    assert len(proc.stdout.strip().splitlines()) >= 8


def import_script(name):
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


def test_simulate_check_z_reads_completed_trials(monkeypatch, capsys):
    simulate_check = import_script("simulate_check")
    # 300 of 400 trials truncate, and the other 100 wait 6 tosses
    truncating = lambda cfg, workers: EmpiricalSummary(cfg.word, 400, cfg.seed, 300, {6: 100})
    monkeypatch.setattr(simulate_check, "run_trials", truncating)
    monkeypatch.setattr(sys, "argv", ["simulate_check.py", "--trials", "400"])
    simulate_check.main()
    # HT: mean 4 and stddev 2; 100 completed waits of 6 give z = 2 / (2 / sqrt(100))
    row = capsys.readouterr().out.splitlines()[2].split()
    assert row[:4] == ["HT", "4.0000", "6.0000", "+10.00"]


def test_bench_layers_pairs_rounds():
    bench_layers = import_script("bench_layers")
    # the current tree wins rounds 1, 2 and 4, and ties round 3
    row = bench_layers._paired([2.0, 3.0, 1.0, 4.0, 1.0], [1.0, 1.0, 1.0, 2.0, 2.0])
    assert row == {"paired_speedup": 2.0, "paired_speedup_iqr": [1.0, 2.0], "current_wins": 3}


def test_bench_layers(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script("bench_layers.py", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["nproc"] >= 1 and report["repeats"] == 1
    row = report["rows"]["pmf HTH n=20000"]
    assert row["current_ms"] > 0 and row["current_iqr_ms"] == [row["current_ms"]] * 2
    assert "verify quick" in report["rows"] and "verify full" in report["rows"]
    assert report["rows"]["brute_force_count HTH n=22"]["current_ms"] > 0
    for name in (
        "finite_gf at 1/2 essential words m=1..64", "closed_gf series(40) words k<=8",
        "verify tail-identities n<=64", "verify cdf-vs-partial-sum m<=64",
        "verify normalization m<=200", "threshold HHHHHHHHHH q=1e-6",
        "threshold HTHTHTHTHT q=1e-6", "threshold HTH q=1/10",
        "threshold HHHHHHHHHHHHHHHHHHHH q=1/2 refusal", "threshold H T^63 q=1/2 refusal",
        "brute_force_count HT n=24", "brute_force_count HT n=15",
        "brute_force_count HHTHTTHHTH n=20", "solve_denominator HTHTTHHTHT",
        "solve_denominator H T^63",
        "counts HTH n=14 engine=brute", "verify engine-agreement n<=20",
        "tail HTH n=64", "tail HTHTTHHTHT n=64", "cdf HTH m=2",
        "tail HTH n=64 memo cleared", "tail HTHTTHHTHT n=64 memo cleared",
        "transition_table HTHTTHHTHT", "automaton_counts HTH n=64",
        "automaton_counts HTHTTHHTHT n=64", "nth_terms HTH n=63,64",
        "nth_terms HTHTTHHTHT n=19999,20000", 'Word("HTHTTHHTHT") x1000',
        "Word == Word x1000", "hash(Word) x1000", "DyadicRational(12345 << 3, 40) x1000",
        "closed_tail HTH n=20000", "closed_tail H T^999 n=3000", "extend_counts H T^999 n=3000",
        "extend_counts HTHTTHHTHT n=64", "CountSequence((0, 1, 1, 2)) x1000",
        'CheckResult("reference-counts", True, "rows", 0.25) x1000',
    ):
        assert report["rows"][name]["current_ms"] > 0
    for row in report["rows"].values():  # 3 significant figures, however small
        assert float(f"{row['current_ms']:.3g}") == row["current_ms"]
    for workers in (1, 2):
        assert report["rows"][f"run_trials HHH 1000000 trials workers={workers}"]["current_ms"] > 0
    # the run_trials rows are timed first, the two at montecarlo's bound leading
    assert list(report["rows"])[:8] == [
        "run_trials HTH 7084 trials", "run_trials HTH 7085 trials",
        "run_trials HTHH 65536 trials cap=512", "run_trials HTHH 65536 trials cap=8192",
        "run_trials HTTHTH 65536 trials", "run_trials HTH 98304 trials workers=2",
        "run_trials HHH 1000000 trials workers=1", "run_trials HHH 1000000 trials workers=2",
    ]
    # then a row of one chunk, and each numpy-route row again with the store of arrays cleared
    run_rows = [name for name in report["rows"] if name.startswith("run_trials")]
    assert run_rows[8:] == ["run_trials HTH 65536 trials"] + [
        f"{name} store cleared" for name in run_rows[1:9]
    ]
    for name in run_rows:  # minor faults of one call, counted in the timing interpreter
        assert report["rows"][name]["current_minflt"] >= 0
    assert "current_minflt" not in report["rows"]["pmf HTH n=20000"]
    cold =[name for name in report["rows"] if name.startswith("cold ")]
    assert cold == [
        "cold import coinwords", "cold counts HTHT 20", "cold counts HTH 40 csv",
        "cold tail HTH 22", "cold threshold HHH 1e-100", "cold stats HTHT", "cold gf HTH --m 8",
        "cold simulate HTHH 65536 trials", "cold verify --full", "cold verify",
        "cold counts HTH 14 engine=brute", "cold simulate HTH 4000 trials",
        "cold stats H T^7199", "cold counts HTH 14000 csv",
    ]
    assert all(report["rows"][name]["current_ms"] > 0 for name in cold)
