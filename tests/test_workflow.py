"""The CI workflow's console-script runs, checked without a runner.

`.github/workflows/tier1.yml` runs the installed ``perimap`` entry point on
inline JSON configs and on the example configs.  These tests read the file
with regular expressions (PyYAML is not a dependency) and check each run's
config the way `cli.main` would before it evaluates anything.
"""
import json
import os
import re

import pytest

from perimap import cli, hybrid_ode

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tier1.yml")


def _workflow():
    with open(WORKFLOW) as fh:
        return fh.read()


def _inline_configs(text):
    """{file name: config object} of every ``echo '<json>' > "$RUNNER_TEMP/
    <name>.json"`` of the workflow."""
    found = re.findall(r"echo '(\{.*?\})' \\\s*\n\s*> \"\$RUNNER_TEMP/"
                       r"([\w.-]+\.json)\"", text)
    return {name: json.loads(body) for body, name in found}


def _runs(text):
    """(mode, config path) of every ``perimap <mode> --config <path>``."""
    return [(mode, path.strip('"')) for mode, path in
            re.findall(r"perimap ([\w-]+) --config (\S+)", text)]


RUNS = _runs(_workflow())
# a run repeated for a byte-for-byte check reads one config, checked once
DISTINCT_RUNS = list(dict.fromkeys(RUNS))


def test_every_run_and_config_is_found():
    text = _workflow()
    configs = _inline_configs(text)
    assert len(RUNS) == 15
    assert len(configs) == text.count("> \"$RUNNER_TEMP/") > 0
    used = {os.path.basename(path) for _, path in RUNS
            if path.startswith("$RUNNER_TEMP/")}
    assert used == set(configs)  # no config left unused or unwritten


@pytest.mark.parametrize("mode, path", DISTINCT_RUNS,
                         ids=[f"{mode}:{os.path.basename(path)}"
                              for mode, path in DISTINCT_RUNS])
def test_run_config_is_valid(mode, path):
    if path.startswith("$RUNNER_TEMP/"):
        obj = _inline_configs(_workflow())[os.path.basename(path)]
    else:
        assert path.startswith("examples/")
        full = os.path.join(ROOT, path)
        assert os.path.isfile(full)
        with open(full) as fh:
            obj = json.load(fh)
    config = cli.parse_config(obj, mode)
    system = cli.system_from_json(config.system)
    kind = "hybrid" if isinstance(system, hybrid_ode.HybridSystem) else "map"
    assert cli.MODES[mode][1] in (None, kind)
