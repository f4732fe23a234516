"""The benchmark's own test: every workload at a tiny size, proof that each
check fails when its expected value is perturbed, and the span arithmetic
behind the per-layer metrics.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import dsums  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, load_spans, subtree  # noqa: E402


def perturbations(value):
    """Each way of nudging one component of an expected value."""
    if isinstance(value, tuple):
        for i, v in enumerate(value):
            for p in perturbations(v):
                yield value[:i] + (p,) + value[i + 1:]
    elif isinstance(value, bool):
        yield not value
    elif isinstance(value, int):
        yield value + 1
    elif isinstance(value, float):
        yield value * (1 + 1e-6)
    elif isinstance(value, str):
        yield value + "0"
    else:
        raise TypeError(f"no perturbation for {value!r}")


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_checks_pass_and_each_perturbed_expectation_fails(workload, tmp_path):
    inp = wl.make_inputs(workload, 0, 0, wl.TINY)
    outputs = wl.run(workload, dsums, inp, str(tmp_path))
    checks = wl.checks(workload, dsums, inp, outputs, str(tmp_path), wl.TINY)
    assert [c.name for c in checks] == wl.check_names(workload, inp, wl.TINY)
    assert [c.name for c in checks if not c.ok] == []
    for c in checks:
        for want in perturbations(c.want):
            assert not dataclasses.replace(c, want=want).ok, (c.name, want)


def test_seeded_inputs_repeat_and_stay_in_range():
    for seed in range(1, 6):
        inp = wl.make_inputs("lfunctions", seed, 0)
        assert inp == wl.make_inputs("lfunctions", seed, 3)
        assert 19900 <= inp["f"] <= 20100 and inp["f"] % 6 == 1
        assert 9000 <= inp["ef"] <= 10000 and len(wl._factor(inp["ef"])) == 3
        assert all(150 <= p <= 199 for p in inp["primes"])
    assert wl.make_inputs("lfunctions", 0, 0) == {"f": 20011, "ef": 9919, "primes": [181, 191, 199]}
    assert wl.make_inputs("survey-small", 0, 0)["pair"] == (5, 9)
    cycle = [wl.make_inputs("survey-small", 7, i)["pair"] for i in range(3)]
    assert sorted(n for pair in cycle for n in pair) == sorted(wl.ROWS_1E6)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_instance_in_fresh_interpreter(workload):
    out = subprocess.run([sys.executable, str(HERE / "instance.py"), "--workload", workload,
                          "--seed", "1", "--size", "tiny"],
                         capture_output=True, text=True, check=True, cwd=ROOT)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["checks"] and all(ok for _, ok, _, _ in res["checks"])
    assert res["wall_s"] > 0 and res["items"] > 0 and res["peak_rss_mb"] > 0
    assert Path(res["dsums_file"]).resolve().is_relative_to(ROOT / "src")


def test_traced_survey_spans_add_up():
    run_id = "test-traced-survey"
    subprocess.run([sys.executable, str(HERE / "instance.py"), "--workload", "survey-small",
                    "--seed", "0", "--size", "tiny", "--trace", run_id],
                   capture_output=True, text=True, check=True, cwd=ROOT)
    path = HERE / "out" / f"spans-{run_id}.csv"
    try:
        spans = load_spans(str(path))
    finally:
        path.unlink()
    work = subtree(spans, "workload")
    by_id = {s.span_id: s for s in spans}
    records = [s for s in work if s.name == "survey.n_record"]
    assert len(records) == sum(wl.ROWS_1E5[n][0] for n in (5, 9))
    children: dict[int, float] = {}
    for s in work:
        if s.parent_id in by_id and by_id[s.parent_id].name == "survey.n_record":
            assert s.name in ("unitgroups.primitive_root", "dedekind.parts")
            children[s.parent_id] = children.get(s.parent_id, 0) + s.seconds
    for r in records:
        assert r.self_ns / 1e9 + children[r.span_id] == pytest.approx(r.seconds, abs=1e-9)
    vals = bench.layer_values(spans)
    assert vals["dedekind.calls"] == sum(n * wl.ROWS_1E5[n][0] for n in (5, 9))
    assert 0 < vals["survey.self_share"] < 1
    assert vals["dedekind.parts_us.d1e13.n"] == 1000
    assert vals["meansquare.numeric_s"] == 0


def test_self_time_subtracts_the_union_of_children(tmp_path):
    t = Tracer("unit")
    with t.span("root"):
        pass
    t.starts[0], t.ends[0] = 0, 100
    for lo, hi in ((10, 30), (20, 40), (60, 70)):
        with t.span("kid"):
            pass
        t.parents[-1], t.starts[-1], t.ends[-1] = 0, lo, hi
    t.write(str(tmp_path / "s.csv"))
    spans = load_spans(str(tmp_path / "s.csv"))
    assert spans[0].self_ns == 100 - 30 - 10
    assert [s.self_ns for s in spans[1:]] == [20, 20, 10]


def test_failed_instance_fails_all_its_checks(monkeypatch):
    monkeypatch.setattr(bench, "run_process", lambda cmd, env=None: (1, "", "Traceback"))
    inst = bench.Instance("survey-small", 0, 0)
    assert not inst.ok
    assert [c[0] for c in inst.checks] == wl.check_names("survey-small", inst.inputs)
    assert not any(ok for _, ok in inst.checks)


def test_refuses_checkout_without_dsums(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "lfunctions",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
