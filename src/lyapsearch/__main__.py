"""`python -m lyapsearch`: the command-line front end of lyapsearch.cli."""

import sys

from . import cli

sys.exit(cli.main())
