"""Entry point for ``python -m md3lie``; same command line as ``md3lie``."""

from .cli import main

if __name__ == "__main__":
    main()
