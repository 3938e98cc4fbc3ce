"""``python -m linemaze``: the command line the ``linemaze`` script runs."""

from .cli import main

if __name__ == "__main__":
    main()
