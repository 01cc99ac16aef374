import json

import ledger


def test_reference_outputs_match_the_ledger(tmp_path):
    # every reference CLI output is byte for byte what ledger.json records;
    # a change that moves one on purpose rewrites the ledger (see ledger.py)
    want = json.loads(ledger.LEDGER.read_text())
    got = ledger.digests(tmp_path)
    moved = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not moved, "outputs that differ from ledger.json: " + "; ".join(moved)
