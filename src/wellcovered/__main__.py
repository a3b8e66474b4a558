"""Run the command-line front end as ``python -m wellcovered``."""

import sys

from .cli import main

sys.exit(main())
