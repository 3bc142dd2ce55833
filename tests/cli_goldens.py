"""Run every recorded CLI golden of `test_cli.GOLDEN` through a command.

Usage, from anywhere, with the command that starts the CLI as arguments:

    python tests/cli_goldens.py affa
    python tests/cli_goldens.py python -O -m affa

Each golden's arguments are appended to that command, run in
tests/data/cli, and its stdout compared byte for byte with the recorded
`<name>.out`, and its exit code with the golden's (0 unless it records
an error).  A golden that differs in either prints a unified diff; the
script exits 1 if any does.
"""

from __future__ import annotations

import difflib
import subprocess
import sys

from test_cli import DATA, GOLDEN


def main(prefix: list[str]) -> int:
    if not prefix:
        print(__doc__, file=sys.stderr)
        return 2
    bad = 0
    for name, argv, code in GOLDEN:
        got = subprocess.run(prefix + argv, cwd=DATA, capture_output=True)
        want = (DATA / f"{name}.out").read_bytes()
        if got.returncode == code and got.stdout == want:
            continue
        bad += 1
        print(f"{name}: exit {got.returncode}, expected {code}")
        sys.stdout.writelines(difflib.unified_diff(
            want.decode().splitlines(True),
            got.stdout.decode().splitlines(True),
            f"{name}.out", " ".join(prefix + argv)))
        sys.stdout.write(got.stderr.decode())
    print(f"{len(GOLDEN) - bad} of {len(GOLDEN)} goldens match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
