"""Every name the library and the study scripts import is used, every
library definition has a caller outside the unit tests, the size budget
is read where it is checked, Hermitian spectra take one route, each
setting and choice is declared in one place, and every check that reads a
size has a premise."""
import ast
import dataclasses
import importlib
import re
from pathlib import Path

from oraclebench import cli, harness

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    paths = sorted((ROOT / "src" / "oraclebench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert paths
    unused = {
        path.relative_to(ROOT).as_posix(): names
        for path in paths
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}


def _references(paths) -> tuple[set, set]:
    """(names, attributes) the files refer to: loaded or imported names, accessed attributes."""
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names, attrs


def test_every_library_definition_has_a_caller_outside_the_unit_tests():
    # the callers: the library itself, the study scripts, the benchmark, the
    # acceptance tests and the installed entry point. Top-level names match by
    # name, import or attribute, class members by attribute access alone. A member
    # that implements an abstract method of a base class from another package, such
    # as numpy's seed-sequence interface, has that package as its caller.
    library = sorted((ROOT / "src" / "oraclebench").glob("*.py"))
    callers = (
        library
        + sorted((ROOT / "scripts").glob("*.py"))
        + sorted((ROOT / "perfbench").glob("*.py"))
        + [ROOT / "tests" / "test_acceptance.py"]
    )
    names, attrs = _references(callers)
    # the `module:function` targets of pyproject.toml's [project.scripts] table
    table = (ROOT / "pyproject.toml").read_text().partition("[project.scripts]")[2].partition("\n[")[0]
    names.update(re.findall(r':(\w+)"', table))
    referenced = names | attrs
    uncalled = []
    for path in library:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in referenced:
                uncalled.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                cls = getattr(importlib.import_module(f"oraclebench.{path.stem}"), node.name)
                foreign = {
                    name
                    for base in cls.__mro__[1:]
                    if not base.__module__.startswith("oraclebench")
                    for name in getattr(base, "__abstractmethods__", ())
                }
                uncalled += [
                    f"{path.stem}.{node.name}.{member.name}"
                    for member in node.body
                    if isinstance(member, ast.FunctionDef)
                    and not (member.name.startswith("__") and member.name.endswith("__"))
                    and member.name not in attrs | foreign
                ]
    assert uncalled == []


def test_the_budget_is_read_where_it_is_checked():
    # no function takes a budget to pass along, and no module binds the default
    # at import, where swapping `budget.DEFAULT_BUDGET` would not reach it
    threaded, bound = [], []
    for path in sorted((ROOT / "src" / "oraclebench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                if "budget" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                    threaded.append(f"{path.stem}.{getattr(node, 'name', 'lambda')}")
            elif isinstance(node, ast.ImportFrom) and "DEFAULT_BUDGET" in [a.name for a in node.names]:
                bound.append(path.stem)
    assert threaded == []
    assert bound == []


def test_hermitian_spectra_take_one_route():
    # `np.linalg.eigvalsh` is called from `linalg.hermitian_eigvalsh` alone, so every
    # Hermitian spectrum is solved block by block where its nonzero pattern allows
    callers = []
    for path in sorted((ROOT / "src" / "oraclebench").glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    scopes.setdefault(id(node), fn.name)
        callers += [
            f"{path.stem}.{scopes.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "eigvalsh"
        ]
    assert set(callers) == {"linalg.hermitian_eigvalsh"}


def test_each_setting_has_one_flag_and_one_config_key():
    # every ExperimentConfig field but the kind and the check ids is set by exactly
    # one flag of every subcommand and by exactly one config-file key
    fields = dataclasses.fields(harness.ExperimentConfig)
    settings = sorted(f.name for f in fields if f.name not in ("kind", "lemma_ids"))
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    assert sorted(commands) == ["attack", "lemma", "prfsg-game", "suite"]
    for name, parser in commands.items():
        flagged = [a.dest for a in parser._actions if a.option_strings and a.dest in settings]
        assert sorted(flagged) == settings, name
    filed = [cli._FILE_FIELDS.get(key, key) for key in cli._FILE_KEYS]
    assert sorted(filed) == settings
    assert sorted(cli._FILE_KEYS) == sorted(
        "lam ell s c p trials seed backend tomo out format params sweep".split()
    )


def test_cli_choices_come_from_the_harness_tables():
    commands = cli.build_parser()._subparsers._group_actions[0].choices

    def choices(command, dest):
        (action,) = [a for a in commands[command]._actions if a.dest == dest]
        return list(action.choices)

    kinds = list(harness._READS)
    attacks = [k.removeprefix("attack-") for k in kinds if k.startswith("attack-")]
    assert choices("attack", "target") == attacks
    assert sorted(choices("suite", "profile")) == sorted(harness._SUITE_ATTACKS) == sorted(
        harness._SUITE_OVERRIDES
    )
    assert {f"suite-{p}" for p in harness._SUITE_ATTACKS} <= set(kinds)
    assert choices("lemma", "fmt") == list(harness.REPORT_FORMATS)
    assert sorted(choices("lemma", "lemma_id")) == sorted(harness.CHECKS)


def test_every_size_parameter_has_a_premise():
    # a check that reads a size has a premise that sizes it before any run starts
    sizes = {"d", "n", "lam", "ell", "members"}
    sized = [cid for cid, fn in harness.CHECKS.items() if sizes & set(fn.__kwdefaults__)]
    assert [cid for cid in sized if cid not in harness._PREMISES] == []
