"""Analyzer core: findings, the ``# repro:`` directive grammar, parsing.

Each file is parsed once with :func:`ast.parse` into a
:class:`ModuleContext` (tree + dotted module name + every ``# repro:``
directive its real comments carry).  A directive that is misspelled,
malformed or no longer understood (a leftover ``allow(...)``) is an
``unknown-directive`` error: a typo must not silently turn a guard off.
A file that does not parse is a ``parse`` error.  The driver that runs
``guarded-by`` over the contexts is :mod:`repro.analysis`.
"""

from __future__ import annotations

import ast
import difflib
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: Findings synthesized by the core itself (not by the rule).
RULE_PARSE = "parse"
RULE_UNKNOWN_DIRECTIVE = "unknown-directive"


@dataclass(frozen=True, order=True)
class Finding:
    """One violation at one source location.

    Ordering is (path, line, rule, message) — the stable sort key of the
    report, so output is diffable across runs and machines.
    """

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ----------------------------------------------------------------------
# The ``# repro:`` annotation grammar
# ----------------------------------------------------------------------

class DirectiveSpec(NamedTuple):
    usage: str
    #: Each directive takes at least one word, and at most this many.
    max_words: int


#: Every directive the analyzer understands.  This table and
#: :func:`scan_directives` are the only place directive syntax is
#: spelled; the rule asks for directives by name and never sees comments.
DIRECTIVES: Dict[str, DirectiveSpec] = {
    "guarded-by": DirectiveSpec("guarded-by(<lock>[, <mode>])", 2),
}

_DIRECTIVE_RE = re.compile(
    r"#\s*repro:\s*(?P<name>[A-Za-z][\w\-]*)"
    r"(?:\((?P<args>[^()]*)\))?"
)
_WORD_RE = re.compile(r"[A-Za-z0-9_][\w.\-]*")


class Directive(NamedTuple):
    """One well-formed ``# repro: name(args)`` comment."""

    name: str
    args: Tuple[str, ...]
    line: int


def _well_formed(spec: DirectiveSpec, args: Tuple[str, ...]) -> bool:
    return 1 <= len(args) <= spec.max_words and all(
        _WORD_RE.fullmatch(arg) for arg in args
    )


def scan_directives(
    path: str, source: str,
) -> Tuple[List[Directive], List[Finding]]:
    """Every directive in the file's real ``#`` comments (read from
    :mod:`tokenize` COMMENT tokens, so directive syntax quoted inside a
    string or docstring never counts), plus an ``unknown-directive``
    error for each one that is misspelled or malformed."""
    directives: List[Directive] = []
    problems: List[Finding] = []
    if "repro:" not in source:
        return directives, problems  # most modules carry no directive
    try:
        tokens = list(tokenize.generate_tokens(
            io.StringIO(source).readline
        ))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return directives, problems  # reported as a parse finding
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        for match in _DIRECTIVE_RE.finditer(token.string):
            name, line = match.group("name"), token.start[0]
            args = tuple(
                part.strip()
                for part in (match.group("args") or "").split(",")
                if part.strip()
            )
            spec = DIRECTIVES.get(name)
            if spec is None:
                hint = difflib.get_close_matches(
                    name, sorted(DIRECTIVES), n=1, cutoff=0.5
                )
                problems.append(Finding(
                    path=path, line=line, rule=RULE_UNKNOWN_DIRECTIVE,
                    message=(
                        f"unknown '# repro:' directive {name!r}"
                        + (f" (did you mean {hint[0]!r}?)" if hint else "")
                        + "; it has no effect"
                    ),
                ))
            elif not _well_formed(spec, args):
                problems.append(Finding(
                    path=path, line=line, rule=RULE_UNKNOWN_DIRECTIVE,
                    message=(
                        f"malformed '# repro:' directive {name!r}; "
                        f"write '# repro: {spec.usage}'"
                    ),
                ))
            else:
                directives.append(Directive(name, args, line))
    return directives, problems


def dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ModuleContext:
    """Everything the rule may inspect about one parsed module."""

    def __init__(self, path: str, module: str, tree: ast.Module,
                 source: str) -> None:
        self.path = path
        #: Dotted module name (``repro.db.pager``): the rule scopes on
        #: this, never on raw filesystem paths, so fixtures in tests can
        #: impersonate any module.
        self.module = module
        self.tree = tree
        #: Well-formed directives in source order, and the findings for
        #: the ones that are not.
        self.directives, self.directive_findings = scan_directives(
            path, source
        )


# ----------------------------------------------------------------------
# Reading and parsing
# ----------------------------------------------------------------------


def module_name_for(path: Path) -> str:
    """Dotted module name for a source path (``src/repro/db/pager.py``
    -> ``repro.db.pager``); falls back to the stem for odd layouts."""
    parts = list(path.parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = [path.name]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def parse_sources(
    named_sources: Sequence[Tuple[str, str, str]],
) -> Tuple[List[ModuleContext], List[Finding]]:
    """Parse ``(module, path, source)`` triples into contexts, plus
    parse-failure findings."""
    contexts: List[ModuleContext] = []
    findings: List[Finding] = []
    for module, path, source in named_sources:
        try:
            tree = ast.parse(source)
        except SyntaxError as error:
            findings.append(Finding(
                path=path, line=error.lineno or 1, rule=RULE_PARSE,
                message=f"syntax error: {error.msg}",
            ))
            continue
        contexts.append(ModuleContext(path, module, tree, source))
    return contexts, findings


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def read_sources(
    paths: Sequence[Path], root: Path,
) -> Tuple[List[Tuple[str, str, str]], List[Finding]]:
    """``(module, path, source)`` for every ``*.py`` under ``paths``,
    plus a ``parse`` finding for each file that cannot be read.

    Reported paths are made relative to ``root`` when possible, and
    always use ``/`` separators, so output is stable across checkouts
    and platforms.
    """
    named_sources: List[Tuple[str, str, str]] = []
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            rel = file_path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = file_path
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            findings.append(Finding(
                path=rel.as_posix(), line=1, rule=RULE_PARSE,
                message=f"unreadable source file: {error}",
            ))
            continue
        named_sources.append(
            (module_name_for(file_path), rel.as_posix(), source)
        )
    return named_sources, findings
