"""``python -m fbont``: the ``fbont`` command."""

from .cli import main

raise SystemExit(main())
