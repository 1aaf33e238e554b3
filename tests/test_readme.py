"""README's config documentation stays in step with the parser's keys."""

import re
from pathlib import Path

from cubicber._config import KNOWN_KEYS, parse_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _config_example() -> str:
    blocks = re.findall(r"```ini\n(.*?)```", README, re.S)
    assert len(blocks) == 1, "README should hold one ini config example"
    return blocks[0]


def test_readme_config_example_parses_with_known_keys():
    # parse_config rejects unknown keys, so a documented key that the
    # parser dropped fails here
    keys = set(parse_config(_config_example()))
    assert keys and keys <= KNOWN_KEYS


def test_every_known_key_is_documented():
    example = set(parse_config(_config_example()))
    missing = sorted(k for k in KNOWN_KEYS
                     if k not in example and f"`{k}`" not in README)
    assert not missing, f"keys missing from README: {missing}"
