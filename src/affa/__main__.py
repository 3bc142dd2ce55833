"""`python -m affa ...` runs the command-line front end."""

from affa.cli import main

main()
