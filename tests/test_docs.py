"""Doc-drift guards: the docs must keep up with the code.

Three invariants, enforced so knobs can no longer land undocumented
and removed knobs can no longer linger in the docs:

* every CLI subcommand and every ``--long-flag`` the parser accepts
  appears somewhere in README.md or ``docs/``;
* every ``--long-flag`` README.md or ``docs/`` mentions is accepted by
  the ``repro`` parser or by a benchmark script under ``benchmarks/``
  or ``perfbench/``;
* every ``REPRO_*`` environment variable read anywhere in the source
  tree appears there too;
* every ``InferenceConfig.<name>`` / ``GCLNConfig.<name>`` they write
  is a field of that dataclass;

plus an intra-repo link check over the same markdown set, so the docs
never point at files that moved.
"""

import argparse
import dataclasses
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.cln.model import GCLNConfig
from repro.infer import InferenceConfig

REPO_ROOT = Path(__file__).resolve().parent.parent


def doc_files() -> list[Path]:
    return [REPO_ROOT / "README.md"] + sorted(
        (REPO_ROOT / "docs").glob("**/*.md")
    )


def doc_text() -> str:
    return "\n".join(path.read_text() for path in doc_files())


def walk_parser(parser: argparse.ArgumentParser):
    """Yield (kind, name) for every subcommand and long option."""
    for action in parser._actions:
        for option in action.option_strings:
            if option.startswith("--") and option != "--help":
                yield "flag", option
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield "command", name
                yield from walk_parser(subparser)


def test_docs_exist():
    for path in (
        REPO_ROOT / "README.md",
        REPO_ROOT / "docs" / "architecture.md",
        REPO_ROOT / "docs" / "operations.md",
    ):
        assert path.is_file(), f"missing {path.relative_to(REPO_ROOT)}"


def test_every_cli_flag_is_documented():
    text = doc_text()
    missing = sorted(
        {
            f"{kind} {name}"
            for kind, name in walk_parser(build_parser())
            if name not in text
        }
    )
    assert not missing, (
        "undocumented CLI surface (add to README.md or docs/): "
        + ", ".join(missing)
    )


DOC_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9]*(?:-[a-z0-9]+)*")
BENCH_FLAG = re.compile(r'add_argument\(\s*"(--[a-z0-9-]+)"')


def test_every_documented_flag_exists():
    accepted = {
        name for kind, name in walk_parser(build_parser()) if kind == "flag"
    }
    for root in ("benchmarks", "perfbench"):
        for path in (REPO_ROOT / root).glob("**/*.py"):
            accepted.update(BENCH_FLAG.findall(path.read_text()))
    stale = sorted(set(DOC_FLAG.findall(doc_text())) - accepted)
    assert not stale, (
        "README.md or docs/ mention flags nothing accepts (remove them "
        "or restore the option): " + ", ".join(stale)
    )


def test_every_env_var_is_documented():
    pattern = re.compile(r"REPRO_[A-Z][A-Z0-9_]+")
    used: set[str] = set()
    for root in ("src", "benchmarks"):
        for path in (REPO_ROOT / root).glob("**/*.py"):
            used.update(pattern.findall(path.read_text()))
    assert used, "env-var scan found nothing; did the layout move?"
    text = doc_text()
    missing = sorted(var for var in used if var not in text)
    assert not missing, (
        "undocumented REPRO_* env vars (add to docs/operations.md): "
        + ", ".join(missing)
    )


CONFIG_FIELD = re.compile(r"\b(InferenceConfig|GCLNConfig)\.([A-Za-z_]\w*)")


def test_every_documented_config_field_exists():
    fields = {
        cls.__name__: {f.name for f in dataclasses.fields(cls)}
        for cls in (InferenceConfig, GCLNConfig)
    }
    stale = sorted(
        {
            f"{cls}.{name}"
            for cls, name in CONFIG_FIELD.findall(doc_text())
            if name not in fields[cls]
        }
    )
    assert not stale, (
        "README.md or docs/ mention config fields that do not exist "
        "(remove them or restore the field): " + ", ".join(stale)
    )


LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


@pytest.mark.parametrize("path", doc_files(), ids=lambda p: p.name)
def test_intra_repo_links_resolve(path):
    broken = []
    for target in LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, (
        f"{path.relative_to(REPO_ROOT)} links to missing files: {broken}"
    )
