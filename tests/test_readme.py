"""The README's library tour names only what the package still has.

Each row of the "Library tour" table pairs a module with backticked names.
A name is read up to its first ``(`` or ``[`` (a call signature or an
optional suffix such as ``sample_grf(plan, seed[, n])``); tokens starting with
``.`` are attributes of the class before them and are skipped.
"""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_rows() -> list:
    text = README.read_text()
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`hermgrid."):
            rows.append((cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])))
    return rows


def test_library_tour_names_resolve():
    rows = tour_rows()
    assert {module for module, _ in rows} >= {
        "hermgrid.hermite", "hermgrid.indexset", "hermgrid.smolyak",
        "hermgrid.multilevel", "hermgrid.grf", "hermgrid.model", "hermgrid.cli",
    }
    missing = []
    for module, tokens in rows:
        mod = importlib.import_module(module)
        for token in tokens:
            if token.startswith("."):
                continue
            name = re.split(r"[(\[]", token, maxsplit=1)[0]
            if not hasattr(mod, name):
                missing.append(f"{module}.{name}")
    assert missing == []
