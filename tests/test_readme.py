"""README's Input fields table lists every config field, and its Library use
section every name the package exports; each lists only those."""

import dataclasses
import re
import types
from pathlib import Path
from typing import Dict, Set, get_type_hints

import percsched
from percsched.config import RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def config_rows() -> Dict[str, Set[str]]:
    """Field names per record of the Input fields table, from the ``config``
    row on: ``config`` for the top level, each section under its name."""
    text = README.read_text(encoding="utf-8")
    table = text.split("## Input fields", 1)[1].split("\n## ", 1)[0]
    rows: Dict[str, Set[str]] = {}
    record = None
    for line in table.splitlines():
        if not line.startswith("| "):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0]:
            record = cells[0].strip("`")
        if record == "config" or rows:  # the config rows come last
            rows.setdefault(record, set()).update(re.findall(r"`(\w+)`", cells[1]))
    return rows


def test_input_fields_table_names_every_config_field():
    hints = get_type_hints(RunConfig)
    sections = {
        f.name: hints[f.name] for f in dataclasses.fields(RunConfig)
        if dataclasses.is_dataclass(hints[f.name])
    }
    want = {"config": {f.name for f in dataclasses.fields(RunConfig)} - set(sections)}
    for name, cls in sections.items():
        want[name] = {f.name for f in dataclasses.fields(cls)}
    assert config_rows() == want


def exported_names() -> Set[str]:
    """The names of the Library use section's export list, without the
    module each bullet starts with."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    listing = section.split("`percsched` exports these names", 1)[1].split("\n\n", 2)[1]
    return set(re.findall(r"`(\w+)`", re.sub(r"^- `\w+`:", "", listing, flags=re.M)))


def test_library_use_lists_every_exported_name():
    public = {
        name for name, value in vars(percsched).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported_names() == public
