"""README's library example runs as written, so the documented API cannot go stale."""

import re
import shlex
from pathlib import Path

from adjfactor import GrowthConfig, cli, generate_pa_tf, write_edge_list

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    write_edge_list(generate_pa_tf(GrowthConfig(n=300, n0=3, m=2, p_t=0.5, seed=7)), tmp_path / "mynet.txt")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2


def test_command_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("adjfactor ")]
    assert lines
    for line in lines:
        argv = shlex.split(line.partition("#")[0])[1:]
        args = cli.build_parser().parse_args(argv)
        assert args.command == argv[0]
