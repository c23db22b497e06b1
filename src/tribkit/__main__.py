"""`python -m tribkit`: the command line, as the console script runs it."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
