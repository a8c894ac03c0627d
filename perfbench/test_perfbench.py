"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, self_times, tail, union_length  # noqa: E402

DEMOS = ROOT / "demos" / "problems"


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("job", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),   # overlaps a: covered [1, 5]
        Span("c", 8.0, 12.0, parent=0),  # clipped to the parent: [8, 10]
        Span("a.inner", 1.5, 2.0, parent=1),
        Span("other", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5, 1.0])


def test_recorder_nests_spans_and_tags_jobs():
    tr = Recorder(True)
    tr.job = 7
    with tr.span("job"):
        with tr.span("inner", k=1) as sp:
            sp.attrs["n"] = 2
    assert [(s.name, s.parent, s.job) for s in tr.spans] == [("job", None, 7), ("inner", 0, 7)]
    assert tr.spans[1].attrs == {"k": 1, "n": 2}
    assert tr.spans[0].start <= tr.spans[1].start <= tr.spans[1].end <= tr.spans[0].end
    off = Recorder(False)
    with off.span("job"):
        pass
    assert off.spans == []


def test_tail_keeps_ten_samples_beyond():
    assert tail(list(range(20)))[0] == 50.0
    assert tail(list(range(40)))[0] == 75.0
    assert tail(list(range(99)))[0] == 75.0
    assert tail(list(range(100)))[0] == 90.0
    pct, value = tail([float(i) for i in range(101)])
    assert (pct, value) == (90.0, 90.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_reproducible_per_seed(tmp_path, workload):
    from robust_mv import cli

    a = workloads.generate(workload, 5, tmp_path / "a", DEMOS)
    b = workloads.generate(workload, 5, tmp_path / "b", DEMOS)
    c = workloads.generate(workload, 6, tmp_path / "c", DEMOS)
    assert a == b == c
    names = sorted({j.problem for j in a})
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        doc = cli.load_problem(tmp_path / "a" / name)
        uset = cli.parse_uncertainty(doc)
        cli.parse_criterion(doc)
        cli.parse_jumps(doc, uset.n)
    generated = [n for n in names if n not in workloads.DEMO_PROBLEMS]
    assert any((tmp_path / "a" / n).read_bytes() != (tmp_path / "c" / n).read_bytes()
               for n in generated)
    for name in set(names) & set(workloads.DEMO_PROBLEMS):
        assert (tmp_path / "a" / name).read_bytes() == (DEMOS / name).read_bytes()


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_exactly_the_named_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mc_paths", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
           {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], float) for v in last["metrics"].values())
