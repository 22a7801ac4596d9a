import importlib.util
from pathlib import Path

import pytest

from tseval.cli import build_parser

_SPEC = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def test_every_identity_command_parses():
    parser, _ = build_parser()
    runs = identity.commands()
    names = [name for name, _ in runs + identity.USAGE_ERRORS]
    assert len(set(names)) == len(names)  # each names its own output directory
    for _, argv in runs:
        parser.parse_args(argv)
    for _, argv in identity.USAGE_ERRORS:
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
