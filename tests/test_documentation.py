"""Documentation hygiene: every public module, class and function in the
library carries a docstring (deliverable (e): doc comments on every public
item), and the prose documents only name commands, files and ``VMConfig``
and ``MachineConfig`` attributes that exist."""

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro
from repro.cli import build_parser
from repro.uarch.config import MachineConfig
from repro.vm.config import VMConfig


def _walk_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if ".programs." in info.name:
            continue  # workload sources document themselves via DESCRIPTION
        out.append(info.name)
    return out


MODULES = _walk_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} has no module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                missing.append(name)
    assert not missing, f"{module_name}: undocumented public items " \
                        f"{missing}"


def test_workload_programs_carry_descriptions():
    from repro.workloads.programs import __name__ as pkg_name
    import repro.workloads.programs as programs

    for info in pkgutil.iter_modules(programs.__path__):
        module = importlib.import_module(f"{pkg_name}.{info.name}")
        assert getattr(module, "DESCRIPTION", None), info.name
        assert module.__doc__


ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = [ROOT / name for name in ("README.md", "DESIGN.md",
                                       "EXPERIMENTS.md")] + \
    sorted((ROOT / "docs").glob("*.md"))
DOCUMENT_IDS = [str(path.relative_to(ROOT)) for path in DOCUMENTS]

#: ``python -m repro <cmd>`` or `` `repro <cmd>`` in prose or code blocks.
_COMMAND = re.compile(r"python3? -m repro +([a-z][\w-]*)"
                      r"|`repro +([a-z][\w-]*)")
#: ``VMConfig.<name>`` or ``VMConfig(<name>=`` in prose or code blocks,
#: and the same for ``MachineConfig``.
_CONFIG_NAME = re.compile(r"(VMConfig|MachineConfig)(?:\.(\w+)|\((\w+)=)")
#: Repository paths (globs allowed) and benchmark records.
_PATH = re.compile(r"\b(?:tests|scripts|benchmarks|examples|docs)/[\w./*-]*"
                   r"|\bBENCH_\w+\.json")


def _subcommands():
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    raise AssertionError("the CLI parser has no subcommands")


@pytest.mark.parametrize("document", DOCUMENTS, ids=DOCUMENT_IDS)
def test_documented_commands_exist(document):
    commands = _subcommands()
    named = {first or second
             for first, second in _COMMAND.findall(document.read_text())}
    unknown = sorted(named - commands)
    assert not unknown, f"{document.name} names unknown subcommands " \
                        f"{unknown}"


@pytest.mark.parametrize("document", DOCUMENTS, ids=DOCUMENT_IDS)
def test_documented_config_names_exist(document):
    configs = {"VMConfig": VMConfig(), "MachineConfig": MachineConfig("doc")}
    named = {(cls, first or second) for cls, first, second
             in _CONFIG_NAME.findall(document.read_text())}
    unknown = sorted(f"{cls}.{name}" for cls, name in named
                     if not hasattr(configs[cls], name))
    assert not unknown, f"{document.name} names unknown configuration " \
                        f"attributes {unknown}"


@pytest.mark.parametrize("document", DOCUMENTS, ids=DOCUMENT_IDS)
def test_documented_paths_exist(document):
    mentioned = {match.rstrip(".,")
                 for match in _PATH.findall(document.read_text())}
    missing = sorted(path for path in mentioned
                     if not any(ROOT.glob(path.rstrip("/"))))
    assert not missing, f"{document.name} mentions missing paths {missing}"
