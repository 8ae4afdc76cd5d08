"""README's ``python`` blocks run as written, so the library example keeps
step with the API it shows."""

import pathlib
import re

import numpy as np

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
