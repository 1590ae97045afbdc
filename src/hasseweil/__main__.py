"""`python -m hasseweil ...`: the command-line interface, with its exit code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
