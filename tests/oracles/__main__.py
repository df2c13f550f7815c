"""The experiments CLI with every frames-backed analysis on its oracle.

Run from the repository root with the runner's own flags, e.g.::

    PYTHONPATH=src python -m tests.oracles --dataset data.npz \
        --extensions --report --quiet

Its stdout must be byte-identical to ``python -m repro.experiments.runner``
with the same flags.
"""

import sys

from repro.experiments import runner
from tests.oracles import oracle_scope

if __name__ == "__main__":
    with oracle_scope():
        status = runner.main(sys.argv[1:])
    sys.exit(status)
