"""``python -m bipkit``: the command-line front end, runnable from a checkout
with ``PYTHONPATH=src``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
