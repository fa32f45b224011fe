"""`python -m wattplan`: the same command line as the installed `wattplan` script."""

from .cli import entrypoint

entrypoint()
