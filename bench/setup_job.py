"""One cold start: import fermipin in a fresh process and run one command.

Prints ``{"seconds": ..., "exit": ...}``, the time from before the import
to the end of the command, with the command's own output discarded.

    python3 bench/setup_job.py '["solve", "--model", "hubbard", ...]'
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fermipin import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"seconds": time.perf_counter() - START, "exit": code}))
