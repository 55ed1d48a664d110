"""python -m quiverz: the quiverz command line (cli.main)."""

import sys

from quiverz.cli import main

if __name__ == "__main__":
    sys.exit(main())
