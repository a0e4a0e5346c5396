"""``python -m gemproj``: the same command line as the ``gemproj`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
