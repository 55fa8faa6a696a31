"""Documentation honesty checks: intra-repo links, CLI help and solver keywords.

Run by the CI ``docs`` job (and the tier-1 suite).  Three guarantees:

* every relative link in ``docs/*.md`` and ``README.md`` points at a file
  that exists, so the docs tree cannot rot silently;
* ``python -m repro.cli <subcommand> --help`` works for every subcommand,
  and ``docs/cli.md`` documents exactly the subcommands and flags the
  parser actually exposes — so the CLI reference cannot drift;
* the keyword table in ``docs/formats.md`` lists exactly the ``kwargs``
  each registry entry accepts, so adding a solver option needs a doc edit.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(REPO_ROOT.glob("docs/*.md")) + [REPO_ROOT / "README.md"]

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    actions = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert len(actions) == 1
    return dict(actions[0].choices)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_intra_repo_links_resolve(doc):
    assert doc.is_file(), f"documentation file {doc} is missing"
    broken = []
    for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
        for target in _LINK.findall(line):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not (doc.parent / path).exists():
                broken.append(f"{doc.name}:{lineno}: broken link {target!r}")
    assert not broken, "\n".join(broken)


def test_every_subcommand_prints_help():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    for name in ["--help"] + [name for name in _subcommands()]:
        argv = [sys.executable, "-m", "repro.cli"]
        argv += [name, "--help"] if name != "--help" else [name]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, (name, proc.stderr)
        assert "usage:" in proc.stdout, name


def test_cli_doc_covers_every_subcommand_and_flag():
    cli_doc = (REPO_ROOT / "docs" / "cli.md").read_text()
    for name, sub in _subcommands().items():
        assert f"## {name}" in cli_doc, f"docs/cli.md lacks a section for {name!r}"
        for action in sub._actions:
            for option in action.option_strings:
                if option in ("-h", "--help"):
                    continue
                assert option in cli_doc, (
                    f"docs/cli.md does not document {option!r} of {name!r}"
                )


def test_cli_doc_mentions_no_phantom_subcommands():
    # Fenced command examples in the docs must use real subcommands.
    cli_doc = (REPO_ROOT / "docs" / "cli.md").read_text()
    known = set(_subcommands())
    for match in re.finditer(r"python -m repro\.cli (\w[\w-]*)", cli_doc):
        assert match.group(1) in known, f"docs/cli.md uses unknown subcommand {match.group(1)!r}"


def test_readme_documents_every_registered_algorithm():
    from repro.core.api import SPECS

    table = (REPO_ROOT / "README.md").read_text()
    for name in SPECS:
        assert f"`{name}`" in table, f"README's registry table lacks {name!r}"


def test_formats_doc_lists_every_accepted_kwarg():
    from repro.core.api import SPECS

    lines = (REPO_ROOT / "docs" / "formats.md").read_text().splitlines()
    start = lines.index("| Algorithm | Accepted `kwargs` |") + 2
    documented = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, accepted = re.fullmatch(r"\| `([\w-]+)` \| (.*) \|", line).groups()
        documented[name] = tuple(re.findall(r"`(\w+)`", accepted))
    assert documented == {name: spec.accepted_kwargs() for name, spec in SPECS.items()}
