"""Peak resident memory of one job, in a fresh interpreter that runs nothing else.

    python3 perfbench/probe.py '[["analyze", "--format", "machine", "x.sbd"]]'

Runs each `sbc` command line in turn, output captured, then prints the exit
codes and `ru_maxrss` in KiB as one JSON object.
"""

import contextlib
import io
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sbc.cli import run_cli  # noqa: E402


def main() -> None:
    codes = []
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(run_cli(argv))
    print(json.dumps({"codes": codes, "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))


if __name__ == "__main__":
    main()
