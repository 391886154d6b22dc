#!/usr/bin/env python3
"""Documentation gate for CI (.github/workflows/ci.yml, `docs` job).

Eight checks, all hard failures:

1. Relative markdown links in README.md, EXPERIMENTS.md, docs/*.md and
   specs/README.md must resolve to files inside the repository (no 404s
   within the tree). External (http/https/mailto) links and pure
   #anchors are skipped.
2. Every `specs/<name>.spec` path mentioned anywhere in those documents
   (inline code included, not just markdown links) must exist — the
   runbook is written around `ucr_cli --spec=...`, so a renamed or
   deleted catalogue file must fail the docs job.
3. The reverse: every `specs/*.spec` file on disk must be referenced
   from at least one of those documents — an undocumented sweep is a
   sweep nobody will run.
4. Every section pointer of the form `docs/<file>.md "Section title"`
   in a source comment (src/, tests/, bench/, tools/) must name a real
   markdown heading of that document — e.g. the RNG helpers cite
   docs/ARCHITECTURE.md "Pre-drawn window slots", so renaming that
   section without updating the pointers fails here.
5. Every `run_*` identifier inside a backticked code span of those
   documents must be declared in some src/**/*.hpp, and every backticked
   CamelCase identifier must be a type declared there (`class`,
   `struct`, `enum class` or `using`) or appear in a tests/ or bench/
   source (a test or benchmark name, a benchmark option). Comments and
   GoogleTest suite names do not count — an entry point or class that
   was renamed or deleted must not live on in the docs.
6. With --cli=<path to ucr_cli>, every protocol name `ucr_cli --list`
   prints must appear as a `## <name>` section heading in
   docs/PROTOCOLS.md — the same contract the tier-1 drift test
   (tests/docs/protocols_doc_test.cpp) enforces, re-checked here from
   the built binary so the docs job cannot pass with a stale catalog.
7. Environment variables. (a) Every `UCR_*` name in those documents
   must be spelled as a whole string literal (the form every getenv
   call takes) in some src/, tools/ or bench/ C++ source, outside
   comments; CMake `-DUCR_...` options do not count as names. (b) Every
   `UCR_X=... ./build/<dir>/<binary>` command in them may set only
   variables that `<dir>/<binary>.cpp`, or a header of its own directory
   that it includes, spells that way — an environment override the
   binary does not read must not be documented as if it did.
8. Every `*.md` file named in a comment under src/, tests/, bench/ or
   tools/ (C++ `//` and `/* */` comments, `#` comments of Python, shell
   and CMake files) must exist, at that path from the repository root or
   beside the commenting file: a comment must not send its reader to a
   document the tree does not have.

Exit codes: 0 ok, 1 check failed, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SPEC_REF_RE = re.compile(r"specs/[A-Za-z0-9._/-]+\.spec")
SECTION_REF_RE = re.compile(r"docs/([A-Za-z0-9._-]+\.md) \"([^\"]+)\"")
HEADING_RE = re.compile(r"^#{1,6} +(.+?)\s*$", re.MULTILINE)
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
RUN_IDENT_RE = re.compile(r"\brun_[A-Za-z0-9_]+")
CAMEL_IDENT_RE = re.compile(r"\b[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+\b")
TYPE_DECL_RE = re.compile(r"\b(?:class|struct|using)\s+([A-Za-z_]\w*)")
# A TEST / TEST_F / TYPED_TEST ... macro and its first argument, the suite.
TEST_SUITE_RE = re.compile(r"\b\w*TEST\w*\(\s*\w+")
WORD_RE = re.compile(r"\w+")
LINE_COMMENT_RE = re.compile(r"//.*")
ENV_NAME_RE = re.compile(r"\bUCR_[A-Z0-9_]+")
# A run of UCR_X=value assignments (backslash continuations allowed) in
# front of a ./build/<dir>/<binary> command.
ENV_COMMAND_RE = re.compile(
    r"((?:\bUCR_[A-Z0-9_]+=\S*[ \t]+(?:\\\n[ \t]*)?)+)\./build/(\w+)/(\w+)")
# C++ string and character literals and comments, in source order.
CPP_TOKEN_RE = re.compile(
    r"\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'|//[^\n]*|/\*.*?\*/", re.S)
LOCAL_INCLUDE_RE = re.compile(r'^#include "([^"/]+)"', re.MULTILINE)
MD_NAME_RE = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b")
HASH_COMMENT_RE = re.compile(r"#.*")


def iter_doc_files(root: pathlib.Path):
    for name in ("README.md", "EXPERIMENTS.md", "specs/README.md"):
        path = root / name
        if path.is_file():
            yield path
    docs = root / "docs"
    if docs.is_dir():
        yield from sorted(docs.glob("*.md"))


def check_links(root: pathlib.Path) -> list[str]:
    errors = []
    for doc in iter_doc_files(root):
        text = doc.read_text(encoding="utf-8")
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (doc.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(root)}: broken relative link "
                    f"'{target}'"
                )
    return errors


def check_spec_refs(root: pathlib.Path) -> list[str]:
    """Every specs/*.spec path a document mentions must exist on disk."""
    errors = []
    for doc in iter_doc_files(root):
        text = doc.read_text(encoding="utf-8")
        for ref in sorted(set(SPEC_REF_RE.findall(text))):
            if not (root / ref).is_file():
                errors.append(
                    f"{doc.relative_to(root)}: references missing spec "
                    f"file '{ref}'"
                )
    return errors


def check_spec_coverage(root: pathlib.Path) -> list[str]:
    """Every specs/*.spec file on disk must be referenced from >= 1 doc."""
    specs_dir = root / "specs"
    if not specs_dir.is_dir():
        return []
    referenced = set()
    for doc in iter_doc_files(root):
        referenced.update(SPEC_REF_RE.findall(
            doc.read_text(encoding="utf-8")))
    errors = []
    for spec in sorted(specs_dir.rglob("*.spec")):
        rel = spec.relative_to(root).as_posix()
        if rel not in referenced:
            errors.append(
                f"{rel}: not referenced from any document "
                "(README.md, EXPERIMENTS.md, specs/README.md, docs/*.md)"
            )
    return errors


def check_section_refs(root: pathlib.Path) -> list[str]:
    """Every `docs/<file>.md "Section"` pointer in a source comment must
    name a real heading of that document."""
    headings: dict[str, set[str]] = {}
    errors = []
    for tree in ("src", "tests", "bench", "tools"):
        base = root / tree
        if not base.is_dir():
            continue
        for ext in ("*.hpp", "*.cpp", "*.py"):
            for source in sorted(base.rglob(ext)):
                text = source.read_text(encoding="utf-8",
                                        errors="replace")
                for doc_name, section in SECTION_REF_RE.findall(text):
                    if doc_name not in headings:
                        doc = root / "docs" / doc_name
                        headings[doc_name] = (
                            set(HEADING_RE.findall(
                                doc.read_text(encoding="utf-8")))
                            if doc.is_file() else set()
                        )
                    if section not in headings[doc_name]:
                        errors.append(
                            f"{source.relative_to(root)}: cites "
                            f"docs/{doc_name} \"{section}\", which is "
                            "not a heading there"
                        )
    return errors


def check_identifiers(root: pathlib.Path) -> list[str]:
    """Every backticked `run_*` identifier in a document must be declared
    (outside comments) in some src/**/*.hpp; every backticked CamelCase
    identifier must be a type declared there or a word of tests/ or
    bench/ code outside comments and test-suite names."""
    headers = "\n".join(
        LINE_COMMENT_RE.sub("", h.read_text(encoding="utf-8"))
        for h in sorted((root / "src").rglob("*.hpp"))
    )
    known = set(TYPE_DECL_RE.findall(headers))
    for tree in ("tests", "bench"):
        for source in sorted((root / tree).rglob("*.[ch]pp")):
            code = LINE_COMMENT_RE.sub("", source.read_text(encoding="utf-8"))
            known.update(WORD_RE.findall(TEST_SUITE_RE.sub("", code)))
    errors = []
    for doc in iter_doc_files(root):
        runs = set()
        camels = set()
        for span in CODE_SPAN_RE.findall(doc.read_text(encoding="utf-8")):
            runs.update(RUN_IDENT_RE.findall(span))
            camels.update(CAMEL_IDENT_RE.findall(span))
        for name in sorted(runs):
            if not re.search(rf"\b{name}\s*\(", headers):
                errors.append(
                    f"{doc.relative_to(root)}: cites `{name}`, which no "
                    "src/**/*.hpp declares"
                )
        for name in sorted(camels - known):
            errors.append(
                f"{doc.relative_to(root)}: cites `{name}`, which no "
                "src/**/*.hpp declares as a type and no tests/ or bench/ "
                "code uses"
            )
    return errors


def env_literals(source: pathlib.Path) -> set[str]:
    """The UCR_* names a C++ source spells as a whole string literal
    outside comments."""
    return {
        token[1:-1]
        for token in CPP_TOKEN_RE.findall(source.read_text(encoding="utf-8"))
        if re.fullmatch(r'"UCR_[A-Z0-9_]+"', token)
    }


def check_env_vars(root: pathlib.Path) -> list[str]:
    """Every documented UCR_* variable is read by some code, and every
    documented `UCR_X=... ./build/<dir>/<binary>` command sets only
    variables that binary reads."""
    read_anywhere: set[str] = set()
    for tree in ("src", "tools", "bench"):
        for source in sorted((root / tree).rglob("*.[ch]pp")):
            read_anywhere |= env_literals(source)
    errors = []
    for doc in iter_doc_files(root):
        text = doc.read_text(encoding="utf-8")
        rel = doc.relative_to(root)
        for name in sorted(set(ENV_NAME_RE.findall(text)) - read_anywhere):
            errors.append(
                f"{rel}: names environment variable {name}, which no "
                "src/, tools/ or bench/ code reads"
            )
        for assignments, directory, binary in ENV_COMMAND_RE.findall(text):
            command = f"./build/{directory}/{binary}"
            source = root / directory / f"{binary}.cpp"
            if not source.is_file():
                errors.append(f"{rel}: {command} has no source {directory}/"
                              f"{binary}.cpp")
                continue
            reads = env_literals(source)
            for header in LOCAL_INCLUDE_RE.findall(
                    source.read_text(encoding="utf-8")):
                if (source.parent / header).is_file():
                    reads |= env_literals(source.parent / header)
            for name in sorted(set(ENV_NAME_RE.findall(assignments))
                               - reads):
                errors.append(
                    f"{rel}: sets {name} for {command}, which does not "
                    "read it"
                )
    return errors


def comments(source: pathlib.Path) -> list[str]:
    """The comments of a C++, Python, shell or CMake source."""
    text = source.read_text(encoding="utf-8", errors="replace")
    if source.suffix in (".hpp", ".cpp"):
        return [token for token in CPP_TOKEN_RE.findall(text)
                if token.startswith(("//", "/*"))]
    return HASH_COMMENT_RE.findall(text)


def check_md_names(root: pathlib.Path) -> list[str]:
    """Every *.md file a source comment names must exist."""
    errors = []
    for tree in ("src", "tests", "bench", "tools"):
        base = root / tree
        if not base.is_dir():
            continue
        sources = [path for path in sorted(base.rglob("*"))
                   if path.suffix in (".hpp", ".cpp", ".py", ".sh")
                   or path.name == "CMakeLists.txt"]
        for source in sources:
            for comment in comments(source):
                for name in MD_NAME_RE.findall(comment):
                    if not ((root / name).is_file()
                            or (source.parent / name).is_file()):
                        errors.append(
                            f"{source.relative_to(root)}: a comment names "
                            f"{name}, which does not exist"
                        )
    return errors


def registered_names(cli: str) -> list[str]:
    out = subprocess.run(
        [cli, "--list"], check=True, capture_output=True, text=True
    ).stdout
    names = []
    for line in out.splitlines():
        if line.startswith("  "):
            names.append(line.strip())
    if not names:
        raise RuntimeError(f"'{cli} --list' printed no protocol names")
    return names


def check_protocol_catalog(root: pathlib.Path, cli: str) -> list[str]:
    catalog = root / "docs" / "PROTOCOLS.md"
    if not catalog.is_file():
        return ["docs/PROTOCOLS.md is missing"]
    text = catalog.read_text(encoding="utf-8")
    errors = []
    for name in registered_names(cli):
        if f"## {name}\n" not in text:
            errors.append(
                f"docs/PROTOCOLS.md: missing '## {name}' section for "
                f"registered protocol '{name}'"
            )
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=str(pathlib.Path(__file__).resolve().parent.parent),
        help="repository root (default: parent of tools/)",
    )
    parser.add_argument(
        "--cli",
        help="path to a built ucr_cli; enables the protocol-catalog check",
    )
    args = parser.parse_args()

    root = pathlib.Path(args.root).resolve()
    if not (root / "README.md").is_file():
        print(f"error: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    errors = (check_links(root) + check_spec_refs(root)
              + check_spec_coverage(root) + check_section_refs(root)
              + check_identifiers(root) + check_env_vars(root)
              + check_md_names(root))
    if args.cli:
        try:
            errors += check_protocol_catalog(root, args.cli)
        except (OSError, subprocess.CalledProcessError, RuntimeError) as e:
            print(f"error: protocol catalog check failed to run: {e}",
                  file=sys.stderr)
            return 2

    for error in errors:
        print(f"FAIL: {error}")
    if errors:
        return 1
    checked = ("links + spec refs + spec coverage + section refs"
               " + identifiers + environment variables + comment .md names"
               ) + (
        " + protocol catalog" if args.cli else ""
    )
    print(f"docs check ok ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
