"""README's Input fields table lists every config field, and its Library use
section every name the package exports; each lists only those. Its Run log
format section names every run-log field in declaration order."""

import dataclasses
import re
import types
from pathlib import Path
from typing import Dict, List, Set, get_type_hints

import pytest

import percsched
from percsched.config import RunConfig
from percsched.engine import FrameRecord, RunLogHeader

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


def run_log_names(record: str) -> List[str]:
    """The names in backticks in the Run log format bullet that lists
    ``record``'s fields, from that mention to the bullet's end, each at its
    first mention."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Run log format", 1)[1].split("\n## ", 1)[0]
    bullet = section.split(f"the `{record}` fields", 1)[1].split("\n- ", 1)[0]
    return list(dict.fromkeys(re.findall(r"`(\w+)`", bullet.split("\n\n", 1)[0])))


@pytest.mark.parametrize("record", [RunLogHeader, FrameRecord], ids=lambda cls: cls.__name__)
def test_run_log_format_names_every_field_in_declaration_order(record):
    names = [f.name for f in dataclasses.fields(record)]
    assert [name for name in run_log_names(record.__name__) if name in names] == names
