"""``python -m nilbij``: the ``nilbij`` command, with its exit codes."""

from .cli import entry

entry()
