"""README's library tour runs as written, and its config table is the CLI's.

The tour is the first ``python`` block under "## Library tour"; executing it
fails as soon as it names a function, argument or attribute that the
package no longer has.  The table of config keys under "## CLI" must name
the keys and defaults of `cli.SCHEMA`.
"""
import json
import re
from pathlib import Path

from perimap import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour():
    section = README.read_text().split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs():
    exec(compile(library_tour(), f"{README} (library tour)", "exec"), {})


def config_table():
    """(section, key) -> default of each row of the CLI section's key table."""
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0] in cli.SCHEMA:
            default = cells[3]
            rows[cells[0], cells[1].strip("`")] = (
                cli.REQUIRED if default == "required"
                else json.loads(default.strip("`")))
    return rows


def test_config_table_matches_schema():
    schema = {(where, key): default for where, keys in cli.SCHEMA.items()
              for key, (_, default) in keys.items()}
    assert config_table() == schema
