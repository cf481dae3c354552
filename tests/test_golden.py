"""The golden-output gate: the CLI's output on golden.py's corpus is unchanged."""

import json

import golden


def test_cli_output_matches_golden_json():
    want = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    diffs = golden.differences(want, golden.compute())
    assert not diffs, (
        f"{len(diffs)} (input, command) pairs differ from tests/golden.json; rewrite it with "
        "`python tests/golden.py --update` only for an intended output change:\n" + "\n".join(diffs)
    )


def test_update_report_lists_pairs_and_counts_classes():
    want = {"models/1.sbd": {"input": "i", "fmt": "a", "generate": "b"}, "models/2.sbd": {"input": "j", "generate": "c"},
            "boards/ring.sbd": {"input": "k", "fmt": "d"}}
    got = {"models/1.sbd": {"input": "i", "fmt": "a", "generate": "B"}, "models/2.sbd": {"input": "j", "generate": "C"},
           "boards/ring.sbd": {"input": "K", "fmt": "d", "check": "e"}}
    assert golden.update_report(want, got) == [
        "boards/ring.sbd [check]: not in golden.json",
        "boards/ring.sbd [input]: input changed",
        "models/1.sbd [generate]: output differs",
        "models/2.sbd [generate]: output differs",
        "1 boards/ [check]",
        "1 boards/ [input]",
        "2 models/ [generate]",
        "4 pairs changed in 3 classes",
    ]
