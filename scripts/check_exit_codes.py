#!/usr/bin/env python3
"""Runs a command-line tool once per case and checks its exit code, so a
usage error that aborts (std::terminate, exit 134) instead of exiting
with its documented code fails the test suite.

Usage: check_exit_codes.py BINARY CODE:ARGS [CODE:ARGS ...]

Each case is the expected exit code, a colon, and the arguments, split on
whitespace: `0:--help` or `1:no-such-app 4`.
"""

from __future__ import annotations

import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 1
    binary, cases = sys.argv[1], sys.argv[2:]
    failures = 0
    for case in cases:
        code_text, _, arg_text = case.partition(":")
        expected = int(code_text)
        cmd = [binary, *arg_text.split()]
        got = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                             timeout=60, check=False)
        # A negative return code is a signal (an abort reads -6).
        status = "ok" if got.returncode == expected else "FAILED"
        print(f"{status}: {' '.join(cmd)} -> {got.returncode} (expected {expected})")
        if got.returncode != expected:
            failures += 1
            sys.stderr.write(got.stderr.decode(errors="replace"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
