"""The README's examples run: its python blocks in one namespace, in
order, and its three JSON examples, a value-group cell, a field cell and
a domain, read back to the same JSON."""

import json
import os
import re

from padicint import Domain, GammaCell, KCell

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def blocks(language):
    with open(README, encoding="utf-8") as f:
        return re.findall(rf"^```{language}\n(.*?)^```$", f.read(), re.M | re.S)


def test_python_blocks_run():
    python = blocks("python")
    assert python
    namespace = {}
    for source in python:
        exec(compile(source, README, "exec"), namespace)


def test_json_examples_round_trip():
    examples = [json.loads(text) for text in blocks("json")]
    assert len(examples) == 3
    for cls, data in zip((GammaCell, KCell, Domain), examples):
        assert cls.from_json(data).to_json() == data
