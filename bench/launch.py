"""Untraced child of a timed run: import the CLI, stamp the time, run it.

Usage: python3 launch.py STAMP_FILE CLI_ARG...

STAMP_FILE receives time.monotonic() right after `import pinvtte.cli`
returns; on Linux that clock is system-wide, so the parent subtracts its own
launch time to get setup_s. With no CLI arguments the run stops after the
import, which gives an extra set-up sample.
"""

import sys
import time

import pinvtte.cli

stamp = time.monotonic()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(repr(stamp))
if len(sys.argv) > 2:
    raise SystemExit(pinvtte.cli.main(sys.argv[2:]))
