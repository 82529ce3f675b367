"""``python -m fedsurv``: the same entry point as the ``fedsurv`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
