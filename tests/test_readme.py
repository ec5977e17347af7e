import re
import shlex
import shutil
from pathlib import Path

from rigorkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    # the README's library example is run as written, asserts included
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library example", "exec"), {})


def test_command_examples_run(tmp_path, monkeypatch, capsys):
    # every `rigorkit ...` line of the Command line section's sh block, with
    # backslash continuations joined, exits 0 and reports a positive wall time
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("rigorkit ")]
    assert len(commands) == 11
    shutil.copytree(README.parent / "problems", tmp_path / "problems")
    (tmp_path / "my.lp").write_text("vars 1\nobj 0 1\nineq 0 0 1\nineq_rhs 0 1\nbound 0 0..2\n")
    (tmp_path / "my.dual").write_text("\n1.0 0 0\n")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = cli.dispatch(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        assert float(cli.parse_report(out)[0]["wall_time_s"]) > 0, argv
