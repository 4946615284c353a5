"""One traced ``chromfield`` invocation: python3 cli_child.py SPANS_FILE ARGS...

Installs the tracer's wrappers, runs ``chromfield.cli.main(ARGS)`` and
writes the spans it recorded to SPANS_FILE when it ends, whether the
command succeeds, exits or raises.
"""

import json
import sys
from pathlib import Path

import chromfield.cli

from tracer import Tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return chromfield.cli.main(argv)
    finally:
        Path(span_file).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
