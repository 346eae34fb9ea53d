import re

import pytest

from csmulmod.cli import _build_parser


@pytest.mark.parametrize(
    "command, phrase",
    (
        ("mulmod", "modulo R"),
        ("precompute", "constant set"),
        ("sweep", "every instance"),
        ("hunt", "exhaustive sweep"),
        ("random", "random instances"),
    ),
)
def test_top_level_help_describes_every_command(command, phrase):
    # `csmulmod -h` lists each command with a one-line description
    parser, _ = _build_parser()
    line = re.search(rf"^ +{command} +(\S.*)$", parser.format_help(), re.MULTILINE)
    assert line and phrase in line.group(1)
