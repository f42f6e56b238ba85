"""Run one w9periods CLI command with the span recorder installed.

    python3 bench/tracecli.py OUT.json -- <w9periods arguments>

The traced counterpart of `python -m w9periods.cli <arguments>`, used by
the traced run of the `cli_process` workload: it prints what the CLI
prints, exits with its code, and writes the recorder's spans and
aggregates to OUT.json.  Import time is outside the recorded item.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from w9periods import cli, quadrature  # noqa: E402


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        print("usage: tracecli.py OUT.json -- <w9periods arguments>", file=sys.stderr)
        return 1
    nodes = quadrature.tanh_sinh_nodes
    rec = spans.Recorder()
    spans.install(rec)
    root = rec.begin_item(0)
    try:
        code = cli.main(argv)
    finally:
        rec.exit(root)
        info = nodes.cache_info()
        rec.counts["quadrature.hits"] += info.hits
        rec.counts["quadrature.misses"] += info.misses
        with open(out, "w") as fh:
            json.dump(rec.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
