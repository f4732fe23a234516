"""Every entry of the golden corpus (tests/golden/corpus.json) replays to the same exit
code, stdout, stderr and written files; tests/golden/regen.py rewrites it on purpose."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("regen", Path(__file__).with_name("golden") / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

CORPUS = json.loads(regen.CORPUS.read_text())


def test_the_corpus_holds_every_entry():
    assert {name: {k: entry[k] for k in regen.ENTRIES[name]} for name, entry in CORPUS.items()} == regen.ENTRIES


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden(name, tmp_path):
    assert regen.replay(regen.ENTRIES[name], tmp_path) == CORPUS[name]
