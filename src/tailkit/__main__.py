"""``python -m tailkit``: the command-line interface of :mod:`tailkit.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
