"""sha256 digests of the reference CLI outputs, kept in ledger.json.

The reference runs are `evans` and `wave` at (c, r, i_minus) = (2, 0, 2),
(3, 1, 1.5) and (2, 1, 1.2), `pde --r 0` and `pde --r 1`, and `formulas`
as text at c = 1.5 and as JSON at c = 1, at (c, r) = (3, 1) and with
general rates at c = 2.  Each goes
through `cli.main` in a folder of its own with a relative `--out`, since the
JSON reports name the files written; its exit status, its stdout and every
file it writes are recorded.  `test_ledger.py` compares a fresh run with the
ledger, so any change to a reference output shows by name.  A change that
moves an output on purpose rewrites the ledger, which prints each entry it moves:

    PYTHONPATH=src python tests/ledger.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from branchwaves import cli

LEDGER = Path(__file__).with_name("ledger.json")
WAVES = ((2.0, 0.0, 2.0), (3.0, 1.0, 1.5), (2.0, 1.0, 1.2))
RUNS = {
    **{f"{cmd} c={c:g} r={r:g} i_minus={i:g}":
       [cmd, "--c", f"{c:g}", "--r", f"{r:g}", "--i-minus", f"{i:g}", "--out", f"{cmd}.csv"]
       for cmd in ("evans", "wave") for c, r, i in WAVES},
    **{f"pde r={r}": ["pde", "--r", str(r), "--out", "pde"] for r in (0, 1)},
    **{f"formulas {' '.join(argv)}": ["formulas", *argv] for argv in (
        ["--c", "1.5"], ["--c", "1", "--json"], ["--c", "3", "--r", "1", "--json"],
        ["--c", "2", "--general", "rS=2,rA=4,rI=1,D=0.5", "--json"])},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(folder: str | os.PathLike) -> dict[str, str]:
    """Run every reference run in its own subfolder of `folder`; for each, its exit status
    and the sha256 of its stdout and of each file it wrote, keyed "<run>: <what>"."""
    ledger = {}
    home = os.getcwd()
    for k, (name, argv) in enumerate(RUNS.items()):
        run = Path(folder, f"run{k}")
        run.mkdir()
        stdout = io.StringIO()
        try:
            os.chdir(run)
            with contextlib.redirect_stdout(stdout):
                ledger[f"{name}: exit"] = str(cli.main(argv))
        finally:
            os.chdir(home)
        ledger[f"{name}: stdout"] = _sha256(stdout.getvalue().encode())
        for path in sorted(run.iterdir()):
            ledger[f"{name}: {path.name}"] = _sha256(path.read_bytes())
    return ledger


def moved(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """Each entry that differs from `old` in `new`, as "<key>: changed|added|removed", by key."""
    return [f"{key}: {'added' if key not in old else 'removed' if key not in new else 'changed'}"
            for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (rewrites {LEDGER.name} from this tree)")
    with tempfile.TemporaryDirectory() as folder:
        fresh = digests(folder)
    for line in moved(json.loads(LEDGER.read_text()) if LEDGER.exists() else {}, fresh):
        print(line)
    LEDGER.write_text(json.dumps(fresh, indent=2) + "\n")
    print(f"wrote {len(fresh)} digests to {LEDGER}")
