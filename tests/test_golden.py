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
