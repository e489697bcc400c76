"""``python -m ctschro``: the command-line runner of ``ctschro.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
