"""The experiment script, run end to end as a user runs it."""

import pathlib
import subprocess
import sys

from kakeya.measure import strip_timing

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"


def test_run_experiments_reproduces_the_frozen_tables(tmp_path):
    """``scripts/run_experiments.py`` exits 0; its four decay tables equal
    the frozen fixtures of the same name but for the timing column, and
    its coverage audits report no missing direction."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiments.py"),
         str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    decay = sorted(tmp_path.glob("decay_kakeya_*.csv"))
    assert [p.name for p in decay] == [
        f"decay_kakeya_{v}_{r}.csv" for v in ("dh", "sawyer")
        for r in ("fq2", "zp2")]
    for path in decay:
        assert strip_timing(path.read_text(), "csv") == \
            (FIXTURES / path.name).read_text(), path.name
    coverage = sorted(tmp_path.glob("coverage_*.csv"))
    assert len(coverage) == 2
    for path in coverage:
        header, *rows = path.read_text().splitlines()
        assert header.split(",")[-1] == "missing" and rows
        assert all(row.split(",")[-1] == "0" for row in rows), path.name


def test_freeze_fixtures_check_finds_every_fixture_identical():
    """``scripts/freeze_fixtures.py --check`` regenerates every fixture in
    a temporary directory and finds each one byte-identical to
    tests/fixtures/: exit 0 and "N of N fixtures identical", N the number
    of files there."""
    n = sum(1 for p in FIXTURES.iterdir() if p.is_file())
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "freeze_fixtures.py"),
         "--check"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{n} of {n} fixtures identical" in proc.stdout.splitlines()


def test_count_lines_counts_every_module():
    """``scripts/count_lines.py`` exits 0 and prints one row per
    ``src/kakeya`` module and a total: all its lines, as ``splitlines``
    reads them, and fewer code lines, the total row summing both
    columns."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "count_lines.py")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    header, *rows = (line.split() for line in proc.stdout.splitlines())
    assert header == ["module", "lines", "code"]
    *modules, total = [(name, int(lines), int(code))
                       for name, lines, code in rows]
    package = ROOT / "src" / "kakeya"
    assert [m[0] for m in modules] == sorted(
        p.name for p in package.glob("*.py"))
    for name, lines, code in modules:
        assert lines == len((package / name).read_text().splitlines())
        assert 0 < code < lines
    assert total == ("total", sum(m[1] for m in modules),
                     sum(m[2] for m in modules))
