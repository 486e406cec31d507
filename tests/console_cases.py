"""The console cases of ``tests/data/console.json``, and their runner
through the installed ``quadfree`` script.

Each row runs one command on one instance and names the exit code it
must end in.  Its ``instance`` is a key of the table's ``instances`` or
the name of a file under ``tests/data``; its ``args`` follow the
instance path.  ``tests/test_cli.py`` runs every row in-process through
``cli.main``.  Run as a script, this file runs every row through the
installed ``quadfree``, with warnings as errors:

    python tests/console_cases.py

It prints each row's stdout, then each row whose exit differs (its
argv, both exits and its stderr), and exits 1 if any row differs.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).parent / "data"


def load() -> list[dict]:
    """The table's rows, each with ``fields``: its instance's fields when
    the instance is inline, None when it is a file under ``tests/data``."""
    table = json.loads((DATA / "console.json").read_text(encoding="utf-8"))
    return [{**row, "fields": table["instances"].get(row["instance"])} for row in table["rows"]]


def argv(row, directory) -> list[str]:
    """The row's arguments after ``quadfree``; an inline instance is
    written into ``directory`` first."""
    if row["fields"] is None:
        path = DATA / row["instance"]
    else:
        path = Path(directory) / f"{row['instance']}.json"
        path.write_text(json.dumps(row["fields"]), encoding="utf-8")
    return [row["command"], str(path), *row.get("args", [])]


def main() -> int:
    rows, mismatches = load(), []
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    with tempfile.TemporaryDirectory() as directory:
        for row in rows:
            args = argv(row, directory)
            run = subprocess.run(["quadfree", *args], capture_output=True, text=True, env=env)
            # the ::group:: lines fold each row's stdout in a GitHub Actions log
            print(f"::group::{row['name']}: exit {run.returncode}")
            print(run.stdout, end="", flush=True)
            print("::endgroup::")
            if run.returncode != row["exit"]:
                mismatches.append((row, args, run))
    for row, args, run in mismatches:
        print(
            f"{row['name']}: quadfree {shlex.join(args)} exited {run.returncode},"
            f" expected {row['exit']} ({row['why']})\n{run.stderr}",
            file=sys.stderr,
        )
    print(f"{len(rows) - len(mismatches)} of {len(rows)} console rows end in their exit code")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
