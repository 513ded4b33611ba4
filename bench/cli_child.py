"""Run one bellproc CLI command under the span tracer and save its spans.

    python3 bench/cli_child.py SPANS.npz <bellproc arguments>

Does what ``python -m bellproc <arguments>`` does, with the tracer's
wrappers installed; the parent merges SPANS.npz into its own trace.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["bellproc.cli"].main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
