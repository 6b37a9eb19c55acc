"""``python -m twrc``: the command-line front end (see ``twrc.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
