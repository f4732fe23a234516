"""The golden corpus of `dsums` commands: argv, exit code, stdout and stderr of each,
with the files a command writes stored by sha256 and every `"seconds"` value masked.

tests/test_golden.py replays each entry in process through `cli.main`, in a fresh
directory, and compares. A change that alters an output on purpose rewrites the corpus
with

    PYTHONPATH=src python tests/golden/regen.py

and names the entries that changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("corpus.json")

# name -> argv, and optionally "env" (set for the run) and "setup" (an argv run first, unrecorded)
_REC, _CK = ["--records", "records.csv"], ["--checkpoint", "checkpoint.json"]
ENTRIES = {
    "survey-n15-1e5": {"argv": ["survey", "--n", "15", "--limit", "1e5", *_REC, *_CK]},
    "survey-all-odd-1e4": {"argv": ["survey", "--all-odd", "--limit", "1e4", *_REC, *_CK]},
    "survey-n9-2e5": {"argv": ["survey", "--n", "9", "--limit", "2e5", *_REC]},
    "survey-n15-window-1e10": {"argv": ["survey", "--n", "15", "--from", "1e10", "--span", "3e5", "--threads", "2"]},
    "tables-rho15-1e5": {"argv": ["tables", "--table", "rho15", "--limit", "1e5"]},
    "mean-square-31-order15": {"argv": ["mean-square", "--f", "31", "--order", "15", "--numeric"]},
    "mean-square-20011-order3": {"argv": ["mean-square", "--f", "20011", "--order", "3", "--numeric"]},
    "class-number-199": {"argv": ["class-number", "--p", "199"]},
    "class-number-211-42": {"argv": ["class-number", "--p", "211", "--degree", "42"]},
    "class-number-13-4": {"argv": ["class-number", "--p", "13", "--degree", "4"]},
    "verify-theorem-parity-300": {"argv": ["verify", "--suite", "theorem-parity", "--max-modulus", "300", "--json"]},
    "verify-all-50": {"argv": ["verify", "--suite", "all", "--max-modulus", "50", "--json"]},
    # records above 3037000500, where the lane products take the float form
    "survey-n9-window-1e10": {"argv": ["survey", "--n", "9", "--from", "1e10", "--span", "2e5", *_REC, *_CK]},
    "tables-rho9-window-1e10": {"argv": ["tables", "--table", "rho9-window", "--from", "1e10", "--span", "1e5"]},
    "dedekind-5-1000003": {"argv": ["dedekind", "5", "1000003"]},
    "ef-91": {"argv": ["ef", "--f", "91"]},
    "class-number-1009": {"argv": ["class-number", "--p", "1009"]},
    "tables-rho9-1e6": {"argv": ["tables", "--table", "rho9", "--limit", "1e6"]},
    # records up to 2^23 - 1, the top of the float32 lane Euclid's range
    "survey-n9-window-8e6-to-2^23": {"argv": ["survey", "--n", "9", "--from", "8e6", "--span", "388607", *_REC, *_CK]},
    # three segments: below the plain-product cut 3037000500, across it and above it
    "survey-n9-window-3036e6": {"argv": ["survey", "--n", "9", "--from", "3036e6", "--span", "2e6", *_REC, *_CK]},
}
# the exit-2 cases of tests/test_cli.py
_USAGE_ERRORS = [
    ["dedekind", "2", "8"],
    ["ef", "--f", "15"],
    ["class-number", "--p", "1000003"],
    ["tables", "--table", "rho9-window"],
    ["survey", "--limit", "10**-1"],
    ["survey", "--limit", "1e400"],
    ["survey", "--limit", "100", "--threads", "0"],
    ["survey", "--from", "100"],
    ["survey", "--all-odd", "--from", "100", "--records", "r.csv"],
    ["survey", "--all-odd", "--limit", "2**50", "--checkpoint", "c.json"],
    ["survey", "--all-odd", "--limit", "7", "--threads", "0"],
    ["class-number", "--p", "7", "--degree", "0"],
    ["survey", "--limit", "2**50"],
    ["class-number", "--p", "7", "--dps", "80"],
    ["tables", "--table", "rho5", "--from", "10", "--span", "100"],
    ["tables", "--table", "rho9-window", "--from", "1e3", "--span", "1e3", "--limit", "7"],
    ["survey", "--from", "100", "--span", "50", "--limit", "7"],
    ["survey", "--all-odd", "--n", "5"],
    ["mean-square", "--f", "7", "--gen", "2", "--order", "3"],
    ["dedekind", "1", "9", "--decimal", "-1"],
    ["verify", "--max-modulus", "0"],
    ["verify", "--suite", "kernel-theorem", "--max-modulus", "1"],
    ["verify", "--suite", "kernel-theorem", "--seed", "5"],
    ["survey", "--n", "9", "--limit", "1e3", "--records", "."],
    ["survey", "--n", "9", "--limit", "1e3", "--checkpoint", "."],
    ["survey", "--n", "9", "--limit", "1e3", "--records", "missing/r.csv"],
    ["survey", "--n", "9", "--limit", "1e3", "--checkpoint", "missing/c.json"],
    ["survey", "--n", "9", "--limit", "1e3", "--records", ""],
    ["survey", "--n", "9", "--limit", "1e3", "--checkpoint", ""],
    ["verify", "--suite", "class-number", "--max-modulus", "100"],
    ["tables", "--table", "rho9", "--limit", "\u0661e3"],
    ["survey", "--limit", "1e\u0663"],
    ["survey", "--limit", "100", "--threads", "\u0661"],
    ["dedekind", "\u0661", "\u0669"],
    ["dedekind", "1", "9", "--decimal", "\u0663"],
    ["class-number", "--p", " 2_3"],
    ["class-number", "--p", "13", "--degree", "4 "],
    ["survey", "--n", "\u0669", "--limit", "1e3"],
    ["verify", "--suite", "reciprocity", "--seed", "1_0"],
    ["ef", "--f", "9\u0661"],
    ["mean-square", "--f", "91", "--gen", "\u0669"],
    ["mean-square", "--f", "7", "--order", "\u0663"],
    ["mean-square", "--f", "9", "--kernel", "\u0663"],
    ["mean-square", "--f", "91", "--elements", "1,\u0669,81"],
    ["mean-square", "--f", "91", "--elements", "1, 9, 81"],
    ["survey", "--limit", " 1e3"],
    ["survey", "--limit", "1e3 "],
    ["survey", "--limit", "100", "--threads", " 2"],
]
ENTRIES.update({f"usage-{i:02d}": {"argv": argv} for i, argv in enumerate(_USAGE_ERRORS)})
ENTRIES.update({
    f"usage-env-{i}": {"argv": ["survey", "--limit", "100"], "env": {"DSUMS_THREADS": value}}
    for i, value in enumerate(["x", "\u0661", " 2", "+0", "0"])
})
ENTRIES["usage-rerun-without-records"] = {
    "setup": ["survey", "--n", "9", "--limit", "5000", *_REC, *_CK],
    "argv": ["survey", "--n", "9", "--limit", "5000", *_CK],
}

_SECONDS = re.compile(r'"seconds": [-+0-9.eE]+')


def _main(argv: list[str]) -> int:
    from dsums import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


def _setenv(env: dict) -> dict:
    """Set (or, for None, unset) each variable of env; returns the values it replaced."""
    saved = {k: os.environ.get(k) for k in env}
    for k, v in env.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v
    return saved


def replay(entry: dict, workdir: Path) -> dict:
    """Run one entry in the empty directory workdir and return what the corpus stores of
    it: the entry, its exit code, stdout, stderr and the sha256 of each file left in
    workdir. DSUMS_THREADS is unset unless the entry sets it, and COLUMNS fixes the
    width of argparse's usage lines."""
    saved, cwd = _setenv({"DSUMS_THREADS": None, "COLUMNS": "80", **entry.get("env", {})}), os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(workdir)
        if "setup" in entry:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert _main(entry["setup"]) == 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _main(entry["argv"])
        files = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in sorted(os.listdir())}
    finally:
        os.chdir(cwd)
        _setenv(saved)
    return {
        **entry,
        "exit": code,
        "stdout": _SECONDS.sub('"seconds": "*"', out.getvalue()),
        "stderr": err.getvalue(),
        "files": files,
    }


def main() -> int:
    corpus = {}
    for name, entry in ENTRIES.items():
        with tempfile.TemporaryDirectory() as tmp:
            corpus[name] = replay(entry, Path(tmp))
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(corpus)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
