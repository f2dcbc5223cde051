"""Analyzer core: findings, rules, suppressions, the driver.

The moving parts, in the order they act on a file:

1. the file is parsed once with :func:`ast.parse` into a
   :class:`ModuleContext` (tree + source lines + dotted module name +
   every ``# repro:`` directive its real comments carry — the one
   annotation grammar, :data:`DIRECTIVES`);
2. every registered :class:`Rule` whose :meth:`Rule.applies_to` accepts
   the module walks the tree and yields :class:`Finding`\\ s;
3. inline suppressions (``# repro: allow(<rule>) -- rationale``) on the
   finding's line — or on a comment line directly above it — filter
   findings out; a suppression **must** carry a rationale after ``--``
   or it is itself reported (``suppression-rationale``), and a
   suppression that filtered nothing is reported as a warning
   (``unused-suppression``) so stale allowances cannot accumulate; a
   directive that is misspelled or malformed is an error
   (``unknown-directive``) — a typo must not silently turn a guard off;
4. whatever remains is reported.

Exit-code policy lives in :mod:`repro.analysis.cli`: error-severity
findings always fail, warnings fail only under ``--strict``.
"""

from __future__ import annotations

import ast
import difflib
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Findings synthesized by the core itself (not by a registered rule).
RULE_PARSE = "parse"
RULE_SUPPRESSION_RATIONALE = "suppression-rationale"
RULE_UNUSED_SUPPRESSION = "unused-suppression"
RULE_UNKNOWN_DIRECTIVE = "unknown-directive"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is (path, line, rule, message) — the stable sort key used
    by every reporter, so output is diffable across runs and machines.
    """

    path: str
    line: int
    rule: str
    message: str
    severity: str = SEVERITY_ERROR

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ----------------------------------------------------------------------
# The ``# repro:`` annotation grammar
# ----------------------------------------------------------------------

#: Where a directive must sit to take effect.
ANYWHERE = "own line, or trailing the line it shields"
ON_FIELD = "the 'self.<field> = ...' line"


class DirectiveSpec(NamedTuple):
    usage: str
    #: Each directive takes at least one word, and at most this many
    #: (``None``: any number).
    max_words: Optional[int]
    placement: str
    #: The rule that consumes the directive.
    rule: str


#: Every directive the analyzer understands.  This table and
#: :func:`scan_directives` are the only place directive syntax is
#: spelled; rules ask for directives by name and never see comments.
DIRECTIVES: Dict[str, DirectiveSpec] = {
    "allow": DirectiveSpec(
        "allow(<rule>[, <rule>...]) -- <rationale>", None, ANYWHERE,
        "(any)"),
    "guarded-by": DirectiveSpec(
        "guarded-by(<lock>[, <mode>])", 2, ON_FIELD, "guarded-by"),
}

_DIRECTIVE_RE = re.compile(
    r"#\s*repro:\s*(?P<name>[A-Za-z][\w\-]*)"
    r"(?:\((?P<args>[^()]*)\))?"
    r"(?:\s*--\s*(?P<why>\S.*))?"
)
_WORD_RE = re.compile(r"[A-Za-z0-9_][\w.\-]*")


class Directive(NamedTuple):
    """One well-formed ``# repro: name(args) -- rationale`` comment."""

    name: str
    args: Tuple[str, ...]
    rationale: Optional[str]
    line: int
    #: True when the comment has its line to itself.
    standalone: bool


def _well_formed(spec: DirectiveSpec, args: Tuple[str, ...]) -> bool:
    most = spec.max_words if spec.max_words is not None else len(args)
    return 1 <= len(args) <= most and all(
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
        return directives, problems  # the parse rule reports broken files
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
                directives.append(Directive(
                    name, args, match.group("why"), line,
                    token.line.strip().startswith("#"),
                ))
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
    """Everything a rule may inspect about one parsed module."""

    def __init__(self, path: str, module: str, tree: ast.Module,
                 source: str) -> None:
        self.path = path
        #: Dotted module name (``repro.db.pager``) — rules scope on this,
        #: never on raw filesystem paths.
        self.module = module
        self.tree = tree
        self.source = source
        self.lines = source.splitlines()
        #: Well-formed directives in source order, and the findings for
        #: the ones that are not.
        self.directives, self.directive_findings = scan_directives(
            path, source
        )

    def finding(self, node: ast.AST, rule: str, message: str,
                severity: str = SEVERITY_ERROR) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            rule=rule,
            message=message,
            severity=severity,
        )

    def in_package(self, *prefixes: str) -> bool:
        """True when the module sits under any of the dotted prefixes."""
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )


class Rule:
    """Base class for one invariant check.

    Subclasses set :attr:`name`, :attr:`description`, and
    :attr:`invariant` (the paper property the rule protects), override
    :meth:`check`, and optionally narrow :meth:`applies_to`.
    """

    name: str = ""
    severity: str = SEVERITY_ERROR
    description: str = ""
    #: One line tying the rule to the V2FS soundness argument.
    invariant: str = ""

    def applies_to(self, ctx: ModuleContext) -> bool:
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        if self.applies_to(ctx):
            yield from self.check(ctx)


class ProgramRule(Rule):
    """A rule that needs the *whole program*, not one module at a time.

    Per-module rules are pure functions of one tree; interprocedural
    properties (lock ordering across call edges, guarded-by discipline
    through helper functions) are not.  A ProgramRule receives every
    parsed :class:`ModuleContext` at once via :meth:`check_program`;
    the driver runs it after the per-module pass, and its findings go
    through the same suppression machinery (each finding's
    ``path`` must name one of the analyzed modules for suppressions to
    apply).
    """

    def check_program(
        self, contexts: Sequence["ModuleContext"]
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Running a program rule over a single module is well-defined:
        # the program simply has one module (the fixture entry point).
        yield from self.check_program([ctx])


#: The process-wide rule registry, keyed by rule name.
_RULES: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a rule to the registry (instantiated once)."""
    rule = rule_cls()
    if not rule.name:
        raise ValueError(f"{rule_cls.__name__} has no rule name")
    if rule.name in _RULES:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    _RULES[rule.name] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    # Importing the rule modules populates the registry on first use.
    from repro.analysis import concurrency as _concurrency  # noqa: F401
    from repro.analysis import rules as _rules  # noqa: F401

    return [_RULES[name] for name in sorted(_RULES)]


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

@dataclass
class Suppression:
    line: int
    #: The line the suppression shields: its own line for a trailing
    #: comment; the next statement line for a standalone comment block
    #: (rationales may continue over several comment lines).
    target: int
    rules: Tuple[str, ...]
    rationale: Optional[str]
    used: bool = False

    def covers(self, finding: Finding) -> bool:
        return (
            finding.rule in self.rules
            and finding.line in (self.line, self.target)
        )


def collect_suppressions(ctx: ModuleContext) -> List[Suppression]:
    found: List[Suppression] = []
    for directive in ctx.directives:
        if directive.name != "allow":
            continue
        target = directive.line
        if directive.standalone:
            # Shield the next statement line, past any continuation of
            # the rationale comment block.
            target += 1
            while target <= len(ctx.lines):
                text = ctx.lines[target - 1].strip()
                if text and not text.startswith("#"):
                    break
                target += 1
        found.append(Suppression(
            directive.line, target, directive.args, directive.rationale
        ))
    return found


def apply_suppressions(
    ctx: ModuleContext, findings: List[Finding],
    active_rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Filter suppressed findings; report suppression hygiene issues.

    ``active_rules`` names the rules this run actually executed (None
    means all).  A suppression naming only inactive rules is skipped
    entirely — neither applied nor reported unused — so a filtered
    ``lint --rule`` pass does not flag allowances that belong to the
    rules it deliberately did not run.
    """
    suppressions = collect_suppressions(ctx)
    # "Unknown rule" must mean unknown to the registry, not merely
    # not-yet-imported: force every rule module in before judging.
    all_rules()
    known = set(_RULES) | {
        RULE_PARSE, RULE_SUPPRESSION_RATIONALE, RULE_UNUSED_SUPPRESSION,
        RULE_UNKNOWN_DIRECTIVE,
    }
    if active_rules is not None:
        active = set(active_rules)
        # Keep suppressions that touch an active rule, plus any naming
        # an unknown rule: a typo'd allowance is a hygiene error no
        # matter which subset of rules this run executes.
        suppressions = [
            s for s in suppressions
            if active.intersection(s.rules)
            or any(r not in known for r in s.rules)
        ]
    # A misspelled directive is a guard that is silently off, whichever
    # subset of rules this run executes.
    kept: List[Finding] = list(ctx.directive_findings)
    for finding in findings:
        covering = next(
            (s for s in suppressions if s.covers(finding)), None
        )
        if covering is None:
            kept.append(finding)
        else:
            covering.used = True
    for sup in suppressions:
        if sup.rationale is None:
            kept.append(Finding(
                path=ctx.path, line=sup.line,
                rule=RULE_SUPPRESSION_RATIONALE,
                message=(
                    "suppression has no rationale; write "
                    "'# repro: allow(rule) -- why this is sound'"
                ),
            ))
        for rule_name in sup.rules:
            if rule_name not in known:
                kept.append(Finding(
                    path=ctx.path, line=sup.line,
                    rule=RULE_UNUSED_SUPPRESSION,
                    message=f"suppression names unknown rule {rule_name!r}",
                    severity=SEVERITY_WARNING,
                ))
        if not sup.used:
            kept.append(Finding(
                path=ctx.path, line=sup.line,
                rule=RULE_UNUSED_SUPPRESSION,
                message=(
                    "suppression matched no finding "
                    f"({', '.join(sup.rules)}); remove it"
                ),
                severity=SEVERITY_WARNING,
            ))
    return kept


# ----------------------------------------------------------------------
# Driver
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


def run_rules(
    contexts: Sequence[ModuleContext],
    rules: Sequence[Rule],
) -> List[Finding]:
    """Per-module rules on each context, program rules once over all,
    then suppressions applied per module."""
    findings: List[Finding] = []
    for ctx in contexts:
        for rule in rules:
            if not isinstance(rule, ProgramRule):
                findings.extend(rule.run(ctx))
    program_scope = [
        (rule, [ctx for ctx in contexts if rule.applies_to(ctx)])
        for rule in rules if isinstance(rule, ProgramRule)
    ]
    for rule, scoped in program_scope:
        if scoped:
            findings.extend(rule.check_program(scoped))
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    # A filtered run (lint --rule) must not flag suppressions that
    # belong to rules it did not execute; an unfiltered run sees every
    # registered rule, so the scoping is a no-op there.
    active = {rule.name for rule in rules}
    kept: List[Finding] = []
    for ctx in contexts:
        kept.extend(apply_suppressions(
            ctx, by_path.pop(ctx.path, []), active_rules=active
        ))
    for stray in by_path.values():  # findings on unanalyzed paths
        kept.extend(stray)
    return sorted(kept)


def analyze_source(
    source: str,
    *,
    module: str,
    path: str = "<fixture>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Analyze one source string (the test fixtures' entry point)."""
    return analyze_sources([(module, path, source)], rules=rules)


def parse_sources(
    named_sources: Sequence[Tuple[str, str, str]],
) -> Tuple[List[ModuleContext], List[Finding]]:
    """Parse ``(module, path, source)`` triples into contexts.

    Returns the parsed contexts plus parse-failure findings.  Split out
    from :func:`analyze_sources` so a caller can parse once and run
    the rules on the same context objects more than once — identity is
    what :class:`repro.analysis.engine.Analysis` keys its memo on.
    """
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


def analyze_sources(
    named_sources: Sequence[Tuple[str, str, str]],
    *,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Analyze ``(module, path, source)`` triples as one program.

    The multi-module entry point for interprocedural rule fixtures: a
    test can hand the analyzer a whole miniature package and check
    cross-module call-graph reasoning.
    """
    contexts, findings = parse_sources(named_sources)
    findings.extend(run_rules(
        contexts, rules if rules is not None else all_rules()
    ))
    return sorted(findings)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def parse_paths(
    paths: Sequence[Path],
    *,
    root: Optional[Path] = None,
) -> Tuple[List[ModuleContext], List[Finding]]:
    """Read and parse every ``*.py`` under ``paths`` into contexts.

    Reported paths are made relative to ``root`` (default: the current
    directory) when possible, and always use ``/`` separators, so JSON
    output is stable across checkouts and platforms.
    """
    base = root if root is not None else Path.cwd()
    named_sources: List[Tuple[str, str, str]] = []
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            rel = file_path.resolve().relative_to(base.resolve())
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
    contexts, parse_findings = parse_sources(named_sources)
    findings.extend(parse_findings)
    return contexts, findings


def analyze_paths(
    paths: Sequence[Path],
    *,
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Analyze every ``*.py`` under ``paths``; returns sorted findings.

    All files are parsed before any program rule runs, so
    interprocedural rules see the complete call graph.
    """
    contexts, findings = parse_paths(paths, root=root)
    findings.extend(run_rules(
        contexts, rules if rules is not None else all_rules()
    ))
    return sorted(findings)
