"""The dsums benchmark.

    python3 perfbench/run.py --workload survey-small --seed 0 --seconds 20 --trace 0

Runs instances of one workload, each in a fresh interpreter that imports
dsums from the src/ of this checkout, until --seconds have passed, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones (medians over the run, tracing off); with --trace 1 the run
does a fixed set of instances, one of them traced, and reports the
per-layer metrics. The line before it holds the run context. Exits 1 if
any check failed and 2 if this checkout has no dsums to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from tracer import load_spans, percentile, subtree  # noqa: E402

INSTANCE_TIMEOUT_S = 150
MIN_INSTANCES = 3
CLI_STARTS = 5

END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class Instance:
    """The parsed result of one instance process, or the record of its failure."""

    def __init__(self, workload: str, seed: int, index: int, *, threads=None, io=True, trace=None):
        self.inputs = wl.make_inputs(workload, seed, index)
        self.names = wl.check_names(workload, self.inputs, io=io)
        cmd = [sys.executable, str(HERE / "instance.py"), "--workload", workload,
               "--seed", str(seed), "--index", str(index)]
        if threads is not None:
            cmd += ["--threads", str(threads)]
        if not io:
            cmd.append("--no-io")
        if trace:
            cmd += ["--trace", trace]
        spawned_ns = time.monotonic_ns()
        code, out, err = run_process(cmd)
        self.result = None
        if code == 0:
            try:
                self.result = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                pass
        if self.result is None:
            sys.stderr.write(f"instance {cmd[2:]} failed (exit {code}):\n{err[-4000:]}\n")
            self.checks = [[name, False] for name in self.names]
            return
        self.checks = self.result["checks"]
        for name, ok, got, want in self.checks:
            if not ok:
                sys.stderr.write(f"check {name} failed: got {got}, want {want}\n")
        self.setup_s = (self.result["t_first_ns"] - spawned_ns) / 1e9
        self.wall_s = self.result["wall_s"]

    @property
    def ok(self) -> bool:
        return self.result is not None


def run_process(cmd: list[str], env=None) -> tuple[int, str, str]:
    """Run to completion in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {INSTANCE_TIMEOUT_S} s"
    return proc.returncode, out, err


# ---------------------------------------------------------------------------
# end-to-end run


def timed_run(workload: str, seed: int, seconds: int) -> tuple[dict, list[Instance]]:
    """Whole cycles of instances until `seconds` have passed; medians per cycle."""
    cycle = wl.CYCLE[workload]
    deadline = time.perf_counter() + seconds
    runs: list[Instance] = []
    while time.perf_counter() < deadline or len(runs) < MIN_INSTANCES:
        for _ in range(cycle):
            runs.append(Instance(workload, seed, len(runs)))
        if not all(r.ok for r in runs):
            return {}, runs
    cycles = [runs[i:i + cycle] for i in range(0, len(runs), cycle)]
    values = {
        "wall_s": statistics.median(statistics.fmean(r.wall_s for r in c) for c in cycles),
        "items_per_s": statistics.median(sum(r.result["items"] for r in c) / sum(r.wall_s for r in c)
                                         for c in cycles),
        "setup_s": statistics.median(r.setup_s for r in runs),
        "peak_rss_mb": statistics.median(max(r.result["peak_rss_mb"] for r in c) for c in cycles),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, runs


# ---------------------------------------------------------------------------
# traced run

PER_LAYER_UNITS = {
    "numkernel.sieve_ms": "ms",
    "numkernel.is_prime_us": "us",
    "numkernel.factorize_us": "us",
    "unitgroups.primitive_root_us": "us",
    "unitgroups.unit_group_s": "s",
    "unitgroups.odd_chars_s": "s",
    "dedekind.parts_us.d1e6": "us",
    "dedekind.parts_us.d1e10": "us",
    "dedekind.parts_us.d1e13": "us",
    "dedekind.calls": "count",
    "dedekind.tilde_ms": "ms",
    "meansquare.numeric_s": "s",
    "meansquare.l_one_us": "us",
    "meansquare.exact_ms": "ms",
    "meansquare.max_rel_err": "ratio",
    "meansquare.cases": "count",
    "eisenstein.ef_ms": "ms",
    "classnumber.h_minus_s": "s",
    "classnumber.cases": "count",
    "survey.n_record_us": "us",
    "survey.n_record_s": "s",
    "survey.self_s": "s",
    "survey.self_share": "ratio",
    "survey.scaling_efficiency_t2": "ratio",
    "survey.io_overhead_s": "s",
    "survey.record_bytes": "bytes",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# Latency metrics reported as .p50, .p99 and the sample count .n.
DISTRIBUTIONS = {"numkernel.is_prime_us", "numkernel.factorize_us", "unitgroups.primitive_root_us",
                 "dedekind.parts_us.d1e6", "dedekind.parts_us.d1e10", "dedekind.parts_us.d1e13",
                 "survey.n_record_us"}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in DISTRIBUTIONS:
            out.update({f"{name}.p50": unit, f"{name}.p99": unit, f"{name}.n": "count"})
        else:
            out[name] = unit
    return out


def _parts_bucket(d: int) -> str:
    return "d1e6" if d < 10**8 else "d1e10" if d < 10**12 else "d1e13"


def layer_values(spans) -> dict[str, float]:
    """Per-layer values from one traced instance's spans; layers the
    workload never enters stay 0."""
    vals = dict.fromkeys(per_layer_names(), 0.0)
    work = subtree(spans, "workload")
    rep = subtree(spans, "replay")

    def dist(name: str, micros: list[float]) -> None:
        vals[f"{name}.p50"] = percentile(micros, 50)
        vals[f"{name}.p99"] = percentile(micros, 99)
        vals[f"{name}.n"] = len(micros)

    def us(name: str, pool) -> list[float]:
        return [s.seconds * 1e6 for s in pool if s.name == name]

    records = [s for s in work if s.name == "survey.n_record"]
    if records:
        dist("survey.n_record_us", us("survey.n_record", records))
        dist("numkernel.is_prime_us", us("numkernel.is_prime", work))
        dist("numkernel.factorize_us", us("numkernel.factorize", work))
        dist("unitgroups.primitive_root_us", us("unitgroups.primitive_root", work))
        vals["survey.n_record_s"] = sum(s.seconds for s in records)
        vals["survey.self_s"] = sum(s.self_ns for s in records) / 1e9
        vals["survey.self_share"] = vals["survey.self_s"] / vals["survey.n_record_s"]
        vals["dedekind.calls"] = sum(1 for s in work if s.name == "dedekind.parts")
    parts = [s for s in work + rep if s.name == "dedekind.parts"]
    for bucket in ("d1e6", "d1e10", "d1e13"):
        micros = [s.seconds * 1e6 for s in parts if _parts_bucket(s.attr) == bucket]
        if micros:
            dist(f"dedekind.parts_us.{bucket}", micros)
    sieves = [s.seconds * 1e3 for s in rep if s.name == "numkernel.sieve"]
    if sieves:
        vals["numkernel.sieve_ms"] = statistics.median(sieves)

    def mean_of(name: str, scale: float = 1.0) -> float:
        xs = [s.seconds * scale for s in rep if s.name == name]
        return statistics.fmean(xs) if xs else 0.0

    vals["unitgroups.unit_group_s"] = mean_of("unitgroups.unit_group")
    vals["unitgroups.odd_chars_s"] = mean_of("unitgroups.odd_chars")
    vals["dedekind.tilde_ms"] = mean_of("dedekind.tilde", 1e3)
    vals["meansquare.numeric_s"] = mean_of("meansquare.numeric")
    vals["meansquare.exact_ms"] = mean_of("meansquare.exact", 1e3)
    vals["meansquare.cases"] = sum(1 for s in rep if s.name == "meansquare.numeric")
    vals["eisenstein.ef_ms"] = mean_of("eisenstein.ef", 1e3)
    vals["classnumber.h_minus_s"] = mean_of("classnumber.h_minus")
    vals["classnumber.cases"] = sum(1 for s in rep if s.name == "classnumber.h_minus")
    vals["trace.spans"] = len(spans)
    return vals


def traced_run(workload: str, seed: int) -> tuple[dict, list[Instance]]:
    """One untraced and one traced instance of the seed's first inputs, the
    comparison instances a layer metric needs, and the CLI start-up time."""
    run_id = f"{workload}-{seed}-{os.getpid()}"
    window = workload == "survey-window"
    untraced = Instance(workload, seed, 0)
    # The pool workers of a threads=2 scan cannot hand spans back, so the
    # window is traced at threads=1 and compared with an untraced threads=1 run.
    single = Instance(workload, seed, 0, threads=1) if window else untraced
    traced = Instance(workload, seed, 0, threads=1 if window else None, trace=run_id)
    count_only = Instance(workload, seed, 0, io=False) if workload == "survey-small" else None
    runs = [untraced, traced] + [r for r in (single, count_only) if r not in (None, untraced)]
    cli_times, cli_check = cli_startup()
    runs.append(cli_check)
    if not all(r.ok for r in runs):
        return {}, runs
    span_file = OUT / f"spans-{run_id}.csv"
    vals = layer_values(load_spans(str(span_file)))
    span_file.unlink()
    extras = traced.result["extras"]
    if workload == "lfunctions":
        vals["meansquare.l_one_us"] = (vals["meansquare.numeric_s"] * vals["meansquare.cases"]
                                       / sum(extras["chars"]) * 1e6)
        vals["meansquare.max_rel_err"] = extras["max_rel_err"]
    if window:
        vals["survey.scaling_efficiency_t2"] = single.wall_s / (2 * untraced.wall_s)
    if count_only is not None:
        vals["survey.io_overhead_s"] = untraced.wall_s - count_only.wall_s
        vals["survey.record_bytes"] = untraced.result["extras"]["record_bytes"]
    vals["cli.startup_s"] = statistics.median(cli_times)
    vals["trace.overhead_s"] = traced.wall_s - single.wall_s
    units = per_layer_names()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in vals.items()}
    return metrics, runs


class _CliCheck:
    """The CLI start-up runs, checked like an instance: each must print 1/14."""

    def __init__(self, outputs: list[tuple[int, str]]):
        self.checks = [[f"cli.{i}", code == 0 and out.strip() == "1/14"]
                       for i, (code, out) in enumerate(outputs)]
        self.ok = all(ok for _, ok in self.checks)


def cli_startup() -> tuple[list[float], _CliCheck]:
    """Seconds for `python -m dsums.cli dedekind 2 7`, run CLI_STARTS times."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, outputs = [], []
    for _ in range(CLI_STARTS):
        t0 = time.perf_counter()
        code, out, _ = run_process([sys.executable, "-m", "dsums.cli", "dedekind", "2", "7"], env)
        times.append(time.perf_counter() - t0)
        outputs.append((code, out))
    return times, _CliCheck(outputs)


# ---------------------------------------------------------------------------
# context


def context(runs) -> dict:
    """Where and on what the figures were measured; not gated."""
    first = next((r.result for r in runs if isinstance(r, Instance) and r.ok), {})
    src = ROOT / "src" / "dsums"
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "versions": first.get("versions"),
        "commit": _commit(),
        "dsums_file": first.get("dsums_file"),
        "instances": sum(1 for r in runs if isinstance(r, Instance)),
        "src_lines": {p.name: sum(1 for _ in p.open()) for p in sorted(src.glob("*.py"))},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dsums" / "__init__.py").is_file():
        print(f"no dsums package under {ROOT / 'src'}: nothing to measure", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, runs = traced_run(args.workload, args.seed)
    else:
        metrics, runs = timed_run(args.workload, args.seed, args.seconds)
    attempted = sum(len(r.checks) for r in runs)
    failed = sum(1 for r in runs for c in r.checks if not c[1])
    print(json.dumps({"context": context(runs), "fail_ratio": failed / attempted}))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
