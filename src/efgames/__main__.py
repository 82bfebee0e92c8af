"""``python -m efgames ...`` runs the ``efgames`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
