"""README's ``python`` blocks run as written, its ``bash`` block's
commands parse and its ``ini`` block loads, so the examples keep step with
the API, the CLI and the config schema they show."""

import pathlib
import re
import shlex

import numpy as np

from teunroll import cli
from teunroll.config import load_config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the training block reuses E, y and truth
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["img"].data.shape == namespace["x"].shape == (32, 32)
    assert len(namespace["vdiags"].rows) == 20
    assert len(namespace["curve"]) == 10 and np.all(np.isfinite(namespace["curve"]))
    assert np.all(np.isfinite(namespace["recon"].data))


def test_readme_cli_lines_parse():
    blocks = re.findall(r"^```bash\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("teunroll ")]
    assert len(lines) == 4
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert args.fn.__name__ == "cmd_" + args.command


def test_readme_config_block_loads_to_the_defaults(tmp_path):
    # its inline "; comments" are comments, not parts of the values
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    (tmp_path / "readme.ini").write_text(blocks[0])
    (tmp_path / "empty.ini").write_text("")
    assert load_config(tmp_path / "readme.ini") == load_config(tmp_path / "empty.ini")
