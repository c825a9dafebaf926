"""``repro serve`` with the layer probe installed (the traced service phase).

Takes the same arguments as ``python -m repro``; pass ``--trace-out
PATH.jsonl`` so the server writes its spans, probe spans included, when
it is interrupted.
"""

import sys

from layer_probe import Probe
from repro.service.cli import main

if __name__ == "__main__":
    with Probe():
        sys.exit(main(sys.argv[1:]))
