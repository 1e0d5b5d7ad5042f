"""`python -m dtu`: the command-line interface of dtu.cli."""

from .cli import main

raise SystemExit(main())
