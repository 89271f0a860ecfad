"""README's library tour runs as written.

The tour is the first ``python`` block under "## Library tour"; executing it
fails as soon as it names a function, argument or attribute that the
package no longer has.
"""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour():
    section = README.read_text().split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs():
    exec(compile(library_tour(), f"{README} (library tour)", "exec"), {})
