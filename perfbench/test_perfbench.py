"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

Each test runs the benchmark as a subprocess in a copy of the tree, so that
a changed expected.json or a missing package never touches the repository.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import SplitMix64  # noqa: E402

COUNTERS = ("ring.residue_mul.calls", "phi.residue_table.calls",
            "ring.element_mul.calls", "ring.element_add.calls",
            "phi.phi_eval.calls", "families.eval.calls", "measure.x_cells",
            "measure.w_cells", "measure.pairs_visited",
            "measure.distinct_pairs", "measure.useful_ratio",
            "measure.bitmap_bytes", "measure.hit_cells")


def copy_tree(dest: Path, with_package: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", "out", ".pytest_cache")
    shutil.copytree(HERE, dest / HERE.name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_package:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests" / "fixtures", dest / "tests" / "fixtures")
    return dest


def bench(tree: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result


def record(tree: Path, workload: str, seed: int, trace: int) -> dict:
    path = tree / HERE.name / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def test_generator_is_splitmix64():
    # Reference outputs of SplitMix64 for seed 0.
    g = SplitMix64(0)
    assert [g.next() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_exact_counters_repeat_and_useful_ratio(tmp_path):
    results = []
    for run in range(2):
        tree = copy_tree(tmp_path / f"run{run}")
        rc, result = bench(tree, "decay", 5, trace=1)
        assert rc == 0 and result["correct"], result
        assert set(result["metrics"]) == {
            m["name"] for m in json.loads(
                (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        rec = record(tree, "decay", 5, 1)
        assert rec["counters_repeat"]
        results.append((result, rec))
    (a, rec_a), (b, _) = results
    for name in COUNTERS:
        assert a["metrics"][name] == b["metrics"][name], name

    rows = {(r["ring"], r["variant"], r["D"]): r for r in rec_a["builds"]}
    for rg in ("fq:2", "zp:2"):
        saw = rows[(rg, "sawyer", 10)]
        assert (saw["distinct_pairs"], saw["x_cells"]) == (1024, 32768)
        dh = rows[(rg, "dh", 10)]
        assert (dh["distinct_pairs"], dh["x_cells"]) == (2048, 2048)


def test_changed_expected_hit_count_fails(tmp_path):
    tree = copy_tree(tmp_path)
    path = tree / HERE.name / "expected.json"
    doc = json.loads(path.read_text())
    rows = doc["decay"]["measure kakeya sawyer zp:2 D2..10"]
    fields = rows[-1].split(",")
    fields[1] = str(int(fields[1]) + 1)
    rows[-1] = ",".join(fields)
    path.write_text(json.dumps(doc))

    rc, result = bench(tree, "decay", 1, trace=0)
    assert rc != 0
    assert result["correct"] is False
    assert result["failed"] > 0 and result["failed"] <= result["attempted"]


@pytest.mark.parametrize("trace", (0, 1))
def test_refuses_without_package(tmp_path, trace):
    tree = copy_tree(tmp_path, with_package=False)
    rc, result = bench(tree, "element", 1, trace)
    assert rc != 0
    assert result is None
