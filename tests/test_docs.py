"""The package docstring's examples and the README's library example run, the
README's config table names exactly the config keys, its preset table
shows each preset's forcing, and it names every key of a table's ``meta``;
the CLI's usage text names every flag and preset its parser takes."""

import doctest
import re
from dataclasses import fields
from pathlib import Path

import fobw
import fobw.cli
from fobw.experiments import PRESET_PROBLEMS, ExperimentConfig, run_experiment

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_docstring_examples():
    result = doctest.testmod(fobw)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_config_table_names_every_config_key():
    (table,) = re.findall(r"^\| key .*?\n\n", README.read_text(), flags=re.M | re.S)
    first_cells = re.findall(r"^\| (.*?) \|", table, flags=re.M)
    documented = {key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)}
    assert documented == {f.name for f in fields(ExperimentConfig) if f.init}


def test_readme_preset_table_shows_each_preset_forcing():
    (table,) = re.findall(r"^\| preset .*?\n\n", README.read_text(), flags=re.M | re.S)
    header, _, *rows = ([cell.strip() for cell in line.split("|")[1:-1]]
                        for line in table.strip().splitlines())
    column = header.index("forcing")
    shown = {row[0].strip("`"): row[column].strip("`") for row in rows}
    assert shown == {name: problem["forcing"] for name, problem in PRESET_PROBLEMS.items()}


def test_readme_names_every_meta_key():
    # an AE table carries every key a table can: reference_error too
    table = run_experiment(ExperimentConfig(a=1.0, init_value=1.0, basis=((1, 3, 1.0),)))
    assert set(table.meta) == {"preset", "alpha", "metrics", "failed_columns", "warnings",
                               "reference_error"}
    text = README.read_text()
    assert [key for key in table.meta if f"`meta.{key}`" not in text] == []


def test_usage_text_names_every_flag_and_preset():
    # the module docstring is what --help prints
    usage = fobw.cli.__doc__
    names = [*fobw.cli._COMMANDS, *PRESET_PROBLEMS]
    names += [flag for flags, _ in fobw.cli._COMMANDS.values() for flag in flags]
    assert [name for name in names if not re.search(rf"{re.escape(name)}\b", usage)] == []
