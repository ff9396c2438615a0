"""``python -m piac``: the ``piac`` command line of :mod:`piac.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
