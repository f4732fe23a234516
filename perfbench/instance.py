"""One instance of a workload, in a fresh interpreter with cold caches.

Imports dsums from the src/ of the checkout this file sits in, makes the
instance's inputs from the seed, times the workload's calls into dsums,
checks the answers outside the timed region and prints one JSON object.

With --trace RUN_ID it also records spans around the calls into each dsums
module, then replays the inputs layer by layer, clearing the lru caches
before each layer so that every span pays the cold cost the workload pays.
The spans are written to perfbench/out/spans-RUN_ID.csv at exit.

    python3 perfbench/instance.py --workload lfunctions --seed 0 --index 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import sys
import tempfile
import time
import types
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

D1E13_PAIRS = 1000


def import_dsums():
    sys.path.insert(0, str(ROOT / "src"))
    import dsums

    if not Path(dsums.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"dsums imported from {dsums.__file__}, not from this checkout")
    return dsums


def lru_caches(ds) -> list:
    """Every lru cache in the dsums modules (taken before any patching)."""
    seen = {}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith(ds.__name__ + "."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    seen[id(obj)] = obj
    return list(seen.values())


def traced_api(ds, tracer: Tracer):
    """dsums with spans around the calls the workloads make and, through
    patched module globals, around the calls one module makes into another."""
    for module, attr, name, attr_arg in (
        (ds.survey, "n_record", "survey.n_record", 0),
        (ds.survey, "primitive_root", "unitgroups.primitive_root", 0),
        (ds.survey, "dedekind_sum_parts", "dedekind.parts", 1),
        (ds.unitgroups, "is_prime", "numkernel.is_prime", 0),
        (ds.unitgroups, "factorize", "numkernel.factorize", 0),
    ):
        # A boundary a later dsums no longer has is a layer not entered.
        if hasattr(module, attr):
            tracer.patch(module, attr, name, attr_arg)
    api = types.SimpleNamespace(**{k: getattr(ds, k) for k in dir(ds) if not k.startswith("_")})
    for attr, name in (("scan_fixed_n", "survey.scan"), ("scan_window", "survey.scan"),
                       ("subgroup_of_order", "unitgroups.subgroup_of_order"),
                       ("order3_subgroups_from_ef", "eisenstein.ef"),
                       ("mean_square_numeric", "meansquare.numeric"),
                       ("mean_square_exact", "meansquare.exact"),
                       ("relative_class_number", "classnumber.h_minus")):
        setattr(api, attr, tracer.wrap(name, getattr(ds, attr), 0))
    return api


def replay(workload: str, ds, tracer: Tracer, caches: list, inp: dict, outputs) -> dict:
    """Per-layer replay of the instance's inputs with cold caches."""

    def layer(name: str, attr: int, fn, *args):
        for c in caches:
            c.cache_clear()
        with tracer.span(name, attr):
            return fn(*args)

    extras = {}
    if workload.startswith("survey"):
        if workload == "survey-small":
            ranges = [(n, 0, inp["limit"]) for n in inp["pair"]]
        else:
            ranges = [(inp["n"], inp["lower"], inp["span"])]
        for n, lower, span in ranges:
            layer("numkernel.sieve", n, lambda: list(ds.primes_in_progression(lower, span, 2 * n, 1)))
        parts = tracer.wrap("dedekind.parts", getattr(ds, "dedekind_sum_parts", ds.dedekind_sum), 1)
        rng = random.Random("d1e13")
        for _ in range(D1E13_PAIRS):
            d = rng.randrange(10**13, 11 * 10**12)
            c = rng.randrange(1, d)
            while math.gcd(c, d) != 1:
                c = rng.randrange(1, d)
            parts(c, d)
        return extras
    chars = []
    for f, sub, _, _ in outputs["ms"]:
        layer("unitgroups.unit_group", f, lambda: ds.unit_group(f).units)
        chars.append(len(layer("unitgroups.odd_chars", f, ds.odd_characters_trivial_on, sub)))
        layer("dedekind.tilde", f, ds.subgroup_sum_tilde, sub)
        layer("meansquare.numeric", f, ds.mean_square_numeric, f, sub)
        layer("meansquare.exact", f, ds.mean_square_exact, f, sub)
    fe = inp["ef"]
    layer("eisenstein.ef", fe, lambda: (ds.e_f(fe), ds.order3_subgroups_from_ef(fe)))
    for p in inp["primes"]:
        layer("classnumber.h_minus", p, ds.relative_class_number, p, p - 1)
    extras["chars"] = chars
    extras["max_rel_err"] = wl.max_rel_err(outputs)
    return extras


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--size", choices=sorted(wl.SIZES), default="full")
    ap.add_argument("--threads", type=int, help="override the window's thread count")
    ap.add_argument("--no-io", action="store_true", help="survey-small without records or checkpoint")
    ap.add_argument("--trace", metavar="RUN_ID", help="record spans and replay layers")
    args = ap.parse_args(argv)

    ds = import_dsums()
    import mpmath
    import numpy

    size = wl.SIZES[args.size]
    inp = wl.make_inputs(args.workload, args.seed, args.index, size)
    io = not args.no_io
    tracer = Tracer(args.trace) if args.trace else None
    caches = lru_caches(ds)
    api = traced_api(ds, tracer) if tracer else ds
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        t_first_ns = time.monotonic_ns()
        t0 = time.perf_counter()
        with tracer.span("workload") if tracer else nullcontext():
            outputs = wl.run(args.workload, api, inp, workdir, io=io, threads=args.threads)
        wall = time.perf_counter() - t0
        rss = peak_rss_mb()
        extras = {}
        if tracer:
            with tracer.span("replay"):
                extras = replay(args.workload, ds, tracer, caches, inp, outputs)
        if args.workload == "survey-small" and io:
            extras["record_bytes"] = sum(os.path.getsize(wl.io_paths(workdir, n)["records"])
                                         for n in inp["pair"])
        checks = wl.checks(args.workload, ds, inp, outputs, workdir, size)
    want_names = wl.check_names(args.workload, inp, size, io=io)
    if [c.name for c in checks] != want_names:
        raise SystemExit(f"checks made {[c.name for c in checks]}, expected {want_names}")
    if tracer:
        tracer.write(str(OUT / f"spans-{args.trace}.csv"))
    print(json.dumps({
        "workload": args.workload,
        "inputs": inp,
        "wall_s": wall,
        "t_first_ns": t_first_ns,
        "items": wl.items(args.workload, inp, outputs),
        "peak_rss_mb": rss,
        "checks": [[c.name, c.ok, repr(c.got), repr(c.want)] for c in checks],
        "extras": extras,
        "dsums_file": ds.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "mpmath": mpmath.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
