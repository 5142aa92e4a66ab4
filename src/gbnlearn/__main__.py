"""``python -m gbnlearn``: the same command line as the ``gbnlearn`` script."""

from .cli import main

if __name__ == "__main__":
    main()
