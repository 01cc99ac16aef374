import json

import ledger


def test_reference_outputs_match_the_ledger(tmp_path):
    # every reference CLI output is byte for byte what ledger.json records;
    # a change that moves one on purpose rewrites the ledger (see ledger.py)
    want = json.loads(ledger.LEDGER.read_text())
    got = ledger.digests(tmp_path)
    moved = ledger.moved(want, got)
    assert not moved, "outputs that differ from ledger.json: " + "; ".join(moved)


def test_moved_names_each_kind_of_move():
    old = {"a: exit": "0", "a: stdout": "1", "b: exit": "0"}
    new = {"a: exit": "0", "a: stdout": "2", "c: exit": "0"}
    assert ledger.moved(old, new) == ["a: stdout: changed", "b: exit: removed", "c: exit: added"]
    assert ledger.moved(new, new) == []
