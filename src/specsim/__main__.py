"""`python -m specsim`: the `specsim` command-line interface."""
from .cli import main

main()
