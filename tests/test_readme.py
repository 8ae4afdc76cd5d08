"""README's ``python`` blocks run as written and its ``bash`` block's
commands parse, so the examples keep step with the API and the CLI they
show."""

import pathlib
import re
import shlex

import numpy as np

from teunroll import cli

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
