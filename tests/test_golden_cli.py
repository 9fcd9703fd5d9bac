"""Golden corpus: exit code, stdout and stderr of fixed CLI invocations.

``golden_cli.json`` maps each argv to the bytes ``bergman.cli.main`` printed
for it when the corpus was recorded.  A refactor that claims to keep the
CLI's behaviour must reproduce every entry exactly.  To re-record after an
intended output change, run ``PYTHONPATH=src python3 tests/test_golden_cli.py
I J ...`` with the indices of the affected entries (the NN of the test ids),
or with no index to re-record them all.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from bergman.cli import main

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
# argparse wraps its usage text to the terminal width
COLUMNS = "80"

with open(CORPUS) as _handle:
    ENTRIES = json.load(_handle)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=[f"{i:02d}-{e['argv'][0]}" for i, e in enumerate(ENTRIES)])
def test_golden_cli(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert run(entry["argv"]) == entry


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    picked = [int(a) for a in sys.argv[1:]] or range(len(ENTRIES))
    for i in picked:
        if not 0 <= i < len(ENTRIES):
            sys.exit(f"no golden entry {i}; indices run 0..{len(ENTRIES) - 1}")
        ENTRIES[i] = run(ENTRIES[i]["argv"])
    with open(CORPUS, "w") as handle:
        json.dump(ENTRIES, handle, indent=1)
        handle.write("\n")
    sys.exit(0)
