import importlib.util
import json
from pathlib import Path

import pytest

from tseval.cli import _apply_config, build_parser

_SPEC = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def test_every_identity_command_parses(tmp_path, monkeypatch):
    parser = build_parser()
    runs = identity.commands()
    names = [name for name, _ in runs + identity.USAGE_ERRORS]
    assert len(set(names)) == len(names)  # each names its own output directory
    identity.write_configs(tmp_path)
    monkeypatch.chdir(tmp_path)  # config paths are relative to the run's directory
    for _, argv in runs:
        parser.parse_args(_apply_config(argv, parser))
    for _, argv in identity.USAGE_ERRORS:
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_compare_names_every_entry_that_differs_or_is_missing(tmp_path, capsys):
    def digests(name, entries):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        return str(path)

    a = digests("a", {"run/exit": "0", "run/stdout": "1", "run/out.csv": "2"})
    assert identity.main(["--compare", a, digests("same", {"run/exit": "0", "run/stdout": "1",
                                                           "run/out.csv": "2"})]) == 0
    assert capsys.readouterr().out == ""
    b = digests("b", {"run/exit": "0", "run/stdout": "9", "run/ranks.csv": "3"})
    assert identity.main(["--compare", a, b]) == 1
    printed = capsys.readouterr()
    assert printed.out.splitlines() == ["run/out.csv", "run/ranks.csv", "run/stdout"]
    assert "3 of 4 entries differ" in printed.err
