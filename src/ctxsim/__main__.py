"""Entry point for ``python -m ctxsim``; same as the ``ctxsim`` command."""
import sys

from .cli import main

sys.exit(main())
