"""The package docstring's examples and the README's library example run, the
README's config table names exactly the config keys, its preset table
shows each preset's forcing, its ladder sentence lists the RK4 reference's
step counts, and it names every key of a table's ``meta``;
the CLI's usage text names every flag and preset its parser takes; and
every name the README, a docstring cross-reference or a module's ``__all__``
gives exists."""

import doctest
import importlib
import inspect
import pkgutil
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


def test_readme_ladder_sentence_lists_the_reference_step_counts():
    # the first step counts in order, an ellipsis, then the cap
    (listed,) = re.findall(r"It runs n = ([\d,.\s]+?) steps", README.read_text())
    *first, cap = (int(n) for n in re.findall(r"\d+", listed))
    assert "..." in listed and len(first) >= 2
    assert first == list(fobw.reference.REFERENCE_STEPS[:len(first)])
    assert cap == fobw.reference.REFERENCE_STEPS[-1]


def test_usage_text_names_every_flag_and_preset():
    # the module docstring is what --help prints
    usage = fobw.cli.__doc__
    names = [*fobw.cli._COMMANDS, *PRESET_PROBLEMS]
    names += [flag for flags, _ in fobw.cli._COMMANDS.values() for flag in flags]
    assert [name for name in names if not re.search(rf"{re.escape(name)}\b", usage)] == []


#: every fobw module but ``__main__``, whose import runs the command line
MODULES = {
    info.name: importlib.import_module(f"fobw.{info.name}")
    for info in pkgutil.iter_modules(fobw.__path__) if info.name != "__main__"
}


def _resolves(root, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(root, part):
            return False
        root = getattr(root, part)
    return True


def test_readme_names_of_fobw_modules_exist():
    # `module.name`, and `module.Class.name`, where module is a fobw module
    named = re.findall(r"`(\w+)\.([\w.]+)`", README.read_text())
    missing = [f"{module}.{name}" for module, name in named
               if module in MODULES and not _resolves(MODULES[module], name)]
    assert sum(module in MODULES for module, _ in named) >= 10
    assert missing == []


def test_docstring_cross_references_resolve():
    # a :func:, :meth:, :class: or :data: target is read as fobw.<path>, or
    # in the module that names it, or in a class of that module
    missing = []
    for name, module in MODULES.items():
        classes = [obj for obj in vars(module).values()
                   if inspect.isclass(obj) and obj.__module__ == module.__name__]
        text = Path(module.__file__).read_text()
        for target in re.findall(r":(?:func|meth|class|data):`~?([\w.]+)`", text):
            path = target.removeprefix("fobw.")
            roots = [fobw] if path != target else [module, *classes]
            if not any(_resolves(root, path) for root in roots):
                missing.append(f"{name}: {target}")
    assert missing == []


def test_every_exported_name_exists():
    missing = [f"{name}.{export}" for name, module in MODULES.items()
               for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert sum(hasattr(module, "__all__") for module in MODULES.values()) >= 3
    assert missing == []
