"""README's library quickstart runs as written and shows what it claims."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_and_hold_their_claims() -> None:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    # "The spin-compensated sector ground state above pins the facet"
    assert namespace["report"].tiers[1] == "pinned"
    # "1.0 — the 3-determinant solve is exact here"
    assert abs(namespace["result"].recovered_fraction - 1.0) <= 1e-12
