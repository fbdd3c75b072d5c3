"""The examples in README.md and docs/schedule_grammar.md, read from those
files and run or parsed as written."""

import contextlib
import io
import re
from pathlib import Path

from physedit.cli import build_parser
from physedit.engine import ObjectInit, SimConfig, build_state
from physedit.fill import FillConfig, fill_field
from physedit.materials import MaterialClass
from physedit.scenes import cube_shell_positions, uniform_field
from physedit.schedule import compile_schedule

ROOT = Path(__file__).resolve().parents[1]


def fenced_block(path, heading):
    """The first fenced code block under the ``## heading`` of a file."""
    section = (ROOT / path).read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```\w*\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(fenced_block("README.md", "Library example"),
                     "README.md", "exec"), {})
    assert re.fullmatch(r"\(24, \d+, 3\)\n", out.getvalue())


def test_readme_cli_flags_exist():
    """Every --flag of a README CLI line is an option of its subcommand."""
    parsers = next(action.choices for action in build_parser()._actions
                   if action.dest == "command")
    lines = fenced_block("README.md", "CLI").splitlines()
    for line in lines:
        options = set(parsers[line.split()[1]]._option_string_actions)
        for flag in re.findall(r"(?<!\S)\[?(--[\w-]+)", line.split("#")[0]):
            assert flag in options, f"{flag} in {line!r}"
    assert len(lines) == 7


def test_schedule_grammar_examples_compile():
    """Every line of the Examples block compiles, against a scene of two
    filled cubes, to one intervention in line order."""
    surface = uniform_field(cube_shell_positions(0.12, 5),
                            MaterialClass.ELASTIC, 2e4, 0.3, 400.0)
    cube = fill_field(surface, FillConfig(particle_spacing=0.03))
    cfg = SimConfig(h_grid=0.03, frames=1, domain_lo=(-0.4, -0.1, -0.4),
                    domain_hi=(0.9, 0.6, 0.5))
    state = build_state([ObjectInit(field=cube, h_fill=0.03),
                         ObjectInit(field=cube, h_fill=0.03,
                                    translate=(0.4, 0.0, 0.0))], cfg)
    assert state.interior[state.object_id == 0].any()
    text = fenced_block("docs/schedule_grammar.md", "Examples")
    lines = [k for k, line in enumerate(text.splitlines(), 1)
             if line.strip() and not line.startswith("#")]
    schedule = compile_schedule(text, state)
    assert sorted(iv.source_line for iv in schedule.interventions) == lines
    assert len(lines) == 5
