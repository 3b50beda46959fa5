#!/usr/bin/env python3
"""ssmis_lint: repo-specific determinism & invariant linter.

The golden-fingerprint suites pin *runtime* behavior (bit-identical
trajectories at any thread count, the compressed-storage access contract,
narrowing-safe id handling). This linter moves the same invariants to lint
time, so a violation fails CI before it can corrupt a trajectory that only a
fingerprint mismatch would catch. Four rules:

  R1  raw-adjacency-access
      `Graph::neighbors(u)` / `offsets()` / `adjacency()` throw
      std::logic_error on compressed storage. Outside the decode-aware
      allowlist (the Graph internals themselves), every consumer must use
      one of the decode paths — for_each_neighbor(u, f),
      neighbors(u, scratch), or Graph::RowStream — or prove the storage is
      plain and suppress with a reason.

  R2  nondeterminism-source
      Trajectory-affecting code may draw randomness only from the
      counter-based CoinOracle / seeded Xoshiro256 state and must not read
      wall clocks or host properties: `rand`/`srand`, `std::random_device`,
      `time`/`clock`/`gettimeofday`, the std::chrono clocks
      (system_clock/steady_clock/high_resolution_clock),
      `hardware_concurrency()`, and iteration over unordered containers
      (iteration order is hash-seed dependent) are all flagged. Benchmarks,
      examples, tests, tools, and src/support (resource accounting, CLI
      thread-count defaults, the pool) are exempt by path.

  R3  narrowing-cast
      Vertex ids are i32, adjacency offsets/endpoint counts are i64. An
      i64 -> i32 `static_cast` silently truncates at the 10^8-vertex scale
      this repo targets. Casts to a 32-bit-or-narrower type whose argument
      mentions a 64-bit source (std::int64_t variables, `.size()`,
      std::size_t, adj_len/payload_bytes/file_bytes/...) must go through the
      checked `ssmis::narrow_cast<T>` (src/support/narrow.hpp) instead.

  R4  rule-callback-constness
      A trajectory is a pure function of each vertex's (color, hearing) and
      the counter-based coins only if the rule callbacks the engine invokes
      (transition / scheduled / contribution / active / violating /
      stable_black / in_mis / fast_forwardable / orbit_color) keep no
      state. The
      engine re-evaluates a vertex's predicates only when its color or what
      it hears changed, so a callback that mutates the rule would make the
      trajectory depend on how often the engine happens to call it. A
      definition of one of these callbacks that is not a const member
      function is flagged.

Suppressions: append `// ssmis-lint: allow(R1) reason` (multiple ids:
`allow(R1,R3)`) to the offending line, or place the comment alone on the
line directly above it. A suppression without a reason does not suppress —
the finding stands and the empty suppression is reported alongside it.

Engines: the default token engine needs nothing beyond the standard
library and is the engine of record (CI, --self-test). When python's
libclang bindings are importable, `--engine=clang` re-checks R1 findings
against the real AST (is the receiver actually an ssmis::Graph?) and drops
the ones that are not; any libclang failure falls back to the token
verdicts, so the linter never goes quiet because a wheel is missing.

Exit status: 0 = no unsuppressed findings, 1 = findings, 2 = usage/self-test
harness error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RULES = {
    "R1": "raw-adjacency-access",
    "R2": "nondeterminism-source",
    "R3": "narrowing-cast",
    "R4": "rule-callback-constness",
}

# R1: files allowed to touch the raw CSR views (the storage internals and
# their builders — everything behind the Graph invariant boundary).
R1_ALLOWLIST = (
    "src/graph/graph.hpp",
    "src/graph/graph.cpp",
)

# R2: path prefixes where wall clocks / host probing are legitimate
# (measurement harnesses, resource accounting, CLI defaults, the pool).
R2_EXEMPT_PREFIXES = (
    "bench/",
    "examples/",
    "tests/",
    "tools/",
    "src/support/",
)

# R3: the checked-cast helper itself is the one place allowed to narrow.
R3_ALLOWLIST = ("src/support/narrow.hpp",)

# R3: destination types considered 32-bit-or-narrower for vertex/offset data.
R3_NARROW_DESTS = {
    "Vertex",
    "ssmis::Vertex",
    "int",
    "unsigned",
    "unsignedint",
    "int32_t",
    "std::int32_t",
    "uint32_t",
    "std::uint32_t",
}

# R3: token-level markers of a 64-bit-valued argument expression.
R3_WIDE_MARKERS = re.compile(
    r"int64|uint64|size_t|streamsize|streamoff|tellg|num_edges|adj_len"
    r"|payload_bytes|file_bytes|endpoints|offsets"
)
R3_WIDE_TOKEN_SEQS = ((".", "size", "(", ")"), (".", "tellg", "(", ")"))

# R4: rule callbacks the engine invokes — must be const members.
R4_CONST_CALLBACKS = {
    "transition",
    "scheduled",
    "contribution",
    "active",
    "violating",
    "stable_black",
    "in_mis",
    "fast_forwardable",
    "orbit_color",
}

SUPPRESS_RE = re.compile(
    r"ssmis-lint:\s*allow\(\s*(R[1-4](?:\s*,\s*R[1-4])*)\s*\)\s*(.*)")


@dataclass
class Finding:
    path: str        # repo-relative (or as given) path
    line: int        # 1-based
    rule: str        # "R1".."R4"
    message: str
    hint: str
    suppressed: bool = False
    bad_suppression: bool = False  # matched an allow() without a reason


@dataclass
class Token:
    text: str
    line: int


TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"      # identifier / keyword
    r"|\d[\dxXa-fA-F'.uUlL]*"      # numeric literal (loose)
    r"|::|->|\+\+|--|<<=|>>=|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^="
    r"|[{}()\[\];:,.<>=!+\-*/%&|^~?]"
)


class SourceFile:
    """Comment/string-stripped view of one C++ file plus its suppressions.

    `tokens` is the flat token stream of the code (comments and literal
    *contents* removed — string/char literals are replaced by the
    placeholder token `""` so expression shapes survive).
    `suppressions[line]` is a list of (rules, reason) tuples covering that
    line (same-line comments plus a comment-only line directly above).
    """

    def __init__(self, path: str, text: str):
        self.path = path
        self.tokens: list[Token] = []
        self.suppressions: dict[int, list[tuple[set[str], str]]] = {}
        self._lex(text)

    def _lex(self, text: str) -> None:
        code_chars: list[str] = []
        comments: list[tuple[int, str]] = []  # (line, comment text)
        i, n, line = 0, len(text), 1
        while i < n:
            c = text[i]
            if c == "\n":
                code_chars.append(c)
                line += 1
                i += 1
            elif text.startswith("//", i):
                j = text.find("\n", i)
                j = n if j < 0 else j
                comments.append((line, text[i:j]))
                i = j
            elif text.startswith("/*", i):
                j = text.find("*/", i + 2)
                j = n - 2 if j < 0 else j
                chunk = text[i:j + 2]
                comments.append((line, chunk))
                line += chunk.count("\n")
                code_chars.append(" " * 0)
                # keep newlines so token line numbers stay right
                code_chars.append("\n" * chunk.count("\n"))
                i = j + 2
            elif text.startswith('R"', i):
                # raw string literal: R"delim( ... )delim"
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i)
                    j = n - len(close) if j < 0 else j
                    chunk = text[i:j + len(close)]
                    code_chars.append('""')
                    code_chars.append("\n" * chunk.count("\n"))
                    line += chunk.count("\n")
                    i = j + len(close)
                else:
                    code_chars.append(c)
                    i += 1
            elif c == '"' or c == "'":
                j = i + 1
                while j < n and text[j] != c:
                    j += 2 if text[j] == "\\" else 1
                lit = text[i:j + 1]
                code_chars.append('""' if c == '"' else "'x'")
                code_chars.append("\n" * lit.count("\n"))
                line += lit.count("\n")
                i = j + 1
            else:
                code_chars.append(c)
                i += 1
        code = "".join(code_chars)

        # Tokenize, tracking line numbers.
        pos, cur_line = 0, 1
        for m in TOKEN_RE.finditer(code):
            cur_line += code.count("\n", pos, m.start())
            pos = m.start()
            self.tokens.append(Token(m.group(0), cur_line))
        # '' placeholders from literals are not matched by TOKEN_RE's
        # identifier/number classes; add them so call-argument shapes keep
        # an operand where a string literal sat.
        # (The regex above has no string class on purpose — placeholders are
        # two quote chars, which it skips; argument-counting only needs
        # commas and parens, so this loss is harmless.)

        code_only_lines: set[int] = set()
        stripped_lines = code.split("\n")
        for idx, content in enumerate(stripped_lines, start=1):
            if content.strip() == "":
                code_only_lines.add(idx)

        for cline, ctext in comments:
            m = SUPPRESS_RE.search(ctext)
            if not m:
                continue
            rules = {r.strip() for r in m.group(1).split(",")}
            reason = m.group(2).strip().rstrip("*/").strip()
            targets = [cline]
            # A comment on an otherwise-empty line covers the next line.
            if cline in code_only_lines:
                targets.append(cline + 1)
            for t in targets:
                self.suppressions.setdefault(t, []).append((rules, reason))

    # -- small token-stream helpers -------------------------------------

    def match_paren(self, open_idx: int) -> int:
        """Index of the token closing the paren/brace/bracket at open_idx."""
        openc = self.tokens[open_idx].text
        closec = {"(": ")", "{": "}", "[": "]"}[openc]
        depth = 0
        for i in range(open_idx, len(self.tokens)):
            t = self.tokens[i].text
            if t == openc:
                depth += 1
            elif t == closec:
                depth -= 1
                if depth == 0:
                    return i
        return len(self.tokens) - 1

    def count_args(self, open_idx: int, close_idx: int) -> int:
        """Number of top-level comma-separated arguments in (...)."""
        if close_idx == open_idx + 1:
            return 0
        depth, commas = 0, 0
        for i in range(open_idx + 1, close_idx):
            t = self.tokens[i].text
            if t in "([{":
                depth += 1
            elif t in ")]}":
                depth -= 1
            elif t == "," and depth == 0:
                commas += 1
        return commas + 1


# --------------------------------------------------------------------------
# Rule implementations (token engine)
# --------------------------------------------------------------------------

def rel_path(path: str) -> str:
    ap = os.path.abspath(path)
    if ap.startswith(REPO_ROOT + os.sep):
        return os.path.relpath(ap, REPO_ROOT).replace(os.sep, "/")
    return path.replace(os.sep, "/")


def check_r1(src: SourceFile, rel: str, out: list[Finding]) -> None:
    if rel in R1_ALLOWLIST:
        return
    toks = src.tokens
    for i, tok in enumerate(toks):
        if tok.text not in ("neighbors", "offsets", "adjacency"):
            continue
        if i == 0 or toks[i - 1].text not in (".", "->"):
            continue  # not a member access
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        close = src.match_paren(i + 1)
        nargs = src.count_args(i + 1, close)
        if tok.text == "neighbors" and nargs != 1:
            continue  # neighbors(u, scratch) is the decode-aware overload
        if tok.text in ("offsets", "adjacency") and nargs != 0:
            continue
        call = f"{tok.text}({'u' if nargs else ''})"
        out.append(Finding(
            rel, tok.line, "R1",
            f"raw Graph::{call} outside the decode-aware allowlist "
            "(throws std::logic_error on compressed storage)",
            "use for_each_neighbor(u, f), neighbors(u, scratch), or "
            "Graph::RowStream; if the storage is provably plain, suppress "
            "with a reason"))


R2_BANNED_CALLS = {
    "rand": "libc rand() is seeded global state",
    "srand": "libc srand() mutates global RNG state",
    "time": "wall-clock time() feeds nondeterminism into the run",
    "clock": "processor clock() is host-dependent",
    "gettimeofday": "wall clock read",
    "localtime": "wall clock read",
    "gmtime": "wall clock read",
}
R2_BANNED_NAMES = {
    "random_device": "std::random_device draws entropy outside the seed",
    "system_clock": "wall clock read",
    "steady_clock": "host timer read",
    "high_resolution_clock": "host timer read",
    "hardware_concurrency": "host property must not influence results",
}


def check_r2(src: SourceFile, rel: str, out: list[Finding]) -> None:
    # The mutation fixtures exist to exercise every rule — never exempt.
    if "lint_fixtures" not in rel and \
            any(rel.startswith(p) for p in R2_EXEMPT_PREFIXES):
        return
    toks = src.tokens
    hint = ("trajectory-affecting code draws randomness from CoinOracle / "
            "seeded Xoshiro256 only; move timing or host probing to bench/ "
            "or src/support/, or suppress with a reason")
    for i, tok in enumerate(toks):
        prev = toks[i - 1].text if i > 0 else ""
        if tok.text in R2_BANNED_NAMES:
            if prev in (".", "->") and tok.text != "hardware_concurrency":
                continue  # member named e.g. steady_clock — not the std one
            out.append(Finding(rel, tok.line, "R2",
                               f"nondeterminism source `{tok.text}`: "
                               f"{R2_BANNED_NAMES[tok.text]}", hint))
        elif tok.text in R2_BANNED_CALLS:
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if nxt != "(":
                continue
            if prev in (".", "->"):
                continue  # member function of some object, not libc
            if prev in ("&", "*") or re.fullmatch(r"[A-Za-z_]\w*", prev or "x"):
                continue  # `PhaseClock& clock()` — a declaration, not a call
            close = src.match_paren(i + 1)
            after = toks[close + 1].text if close + 1 < len(toks) else ""
            if after in ("{", "const", "noexcept", "override", "final"):
                continue  # function definition named like the libc symbol
            out.append(Finding(rel, tok.line, "R2",
                               f"nondeterminism source `{tok.text}()`: "
                               f"{R2_BANNED_CALLS[tok.text]}", hint))

    # Unordered-container iteration: collect declared names, flag range-for
    # over them and explicit .begin() walks (membership queries are fine —
    # only *iteration order* is hash-seed dependent).
    names: set[str] = set()
    for i, tok in enumerate(toks):
        if tok.text not in ("unordered_set", "unordered_map"):
            continue
        j = i + 1
        if j < len(toks) and toks[j].text == "<":
            depth = 0
            while j < len(toks):
                if toks[j].text == "<":
                    depth += 1
                elif toks[j].text == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif toks[j].text == ">>":
                    depth -= 2
                    if depth <= 0:
                        break
                j += 1
            j += 1
        while j < len(toks) and toks[j].text in ("&", "*", "const"):
            j += 1
        if j < len(toks) and re.fullmatch(r"[A-Za-z_]\w*", toks[j].text):
            names.add(toks[j].text)
    if not names:
        return
    for i, tok in enumerate(toks):
        if tok.text != "for" or i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        close = src.match_paren(i + 1)
        inner = toks[i + 2:close]
        for k, it in enumerate(inner):
            if it.text == ":" and k + 1 < len(inner) and \
                    inner[k + 1].text in names:
                out.append(Finding(
                    rel, tok.line, "R2",
                    f"iteration over unordered container "
                    f"`{inner[k + 1].text}`: order is hash-seed dependent",
                    "iterate a sorted copy, or switch the container to a "
                    "vector/std::set if order can reach trajectory or "
                    "output state"))
    for i, tok in enumerate(toks):
        if tok.text in names and i + 2 < len(toks) and \
                toks[i + 1].text == "." and toks[i + 2].text == "begin":
            out.append(Finding(
                rel, tok.line, "R2",
                f"iteration over unordered container `{tok.text}` via "
                ".begin(): order is hash-seed dependent",
                "iterate a sorted copy instead"))


def check_r3(src: SourceFile, rel: str, out: list[Finding]) -> None:
    if rel in R3_ALLOWLIST:
        return
    toks = src.tokens
    for i, tok in enumerate(toks):
        if tok.text != "static_cast":
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "<":
            continue
        # Destination type: tokens up to the matching '>'.
        j, depth, dest = i + 1, 0, []
        while j < len(toks):
            t = toks[j].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    break
            elif depth >= 1:
                dest.append(t)
            j += 1
        dest_str = "".join(dest)
        if dest_str not in R3_NARROW_DESTS:
            continue
        if j + 1 >= len(toks) or toks[j + 1].text != "(":
            continue
        close = src.match_paren(j + 1)
        # Markers inside `[...]` subscripts don't widen the value (an index
        # cast like x[static_cast<std::size_t>(u)] says nothing about the
        # width of x's elements) — scan only bracket-depth-0 tokens.
        arg_tokens = []
        depth = 0
        for t in toks[j + 2:close]:
            if t.text == "[":
                depth += 1
                continue
            if t.text == "]":
                depth -= 1
                continue
            if depth == 0:
                arg_tokens.append(t.text)
        arg_str = " ".join(arg_tokens)
        wide = bool(R3_WIDE_MARKERS.search(arg_str))
        if not wide:
            for seq in R3_WIDE_TOKEN_SEQS:
                for k in range(len(arg_tokens) - len(seq) + 1):
                    if tuple(arg_tokens[k:k + len(seq)]) == seq:
                        wide = True
                        break
                if wide:
                    break
        if not wide:
            continue
        out.append(Finding(
            rel, tok.line, "R3",
            f"64-bit value narrowed by static_cast<{dest_str}> "
            "(silent truncation past 2^31)",
            "use ssmis::narrow_cast<T> (src/support/narrow.hpp): asserts "
            "the round-trip in debug builds, documents wraparound in "
            "release"))


def check_r4(src: SourceFile, rel: str, out: list[Finding]) -> None:
    toks = src.tokens
    for name in sorted(R4_CONST_CALLBACKS):
        for i, tok in enumerate(toks):
            if tok.text != name:
                continue
            if i > 0 and toks[i - 1].text in (".", "->"):
                continue  # call site
            if i + 1 >= len(toks) or toks[i + 1].text != "(":
                continue
            close = src.match_paren(i + 1)
            k = close + 1
            quals = []
            while k < len(toks) and toks[k].text in ("const", "noexcept",
                                                     "override", "final"):
                quals.append(toks[k].text)
                k += 1
            if k >= len(toks) or toks[k].text != "{":
                continue  # declaration or call, not a definition body
            # Free functions (no enclosing class) are out of scope; a cheap
            # proxy: require the definition to look like a member (either
            # qualified Foo::name or inside a class — we accept the FP risk
            # and let the const check run on any definition of these names).
            if "const" not in quals:
                out.append(Finding(
                    rel, tok.line, "R4",
                    f"rule callback `{name}` is not a const member function",
                    "declare the callback const; a rule that mutates itself "
                    "makes the trajectory depend on how often the engine "
                    "re-evaluates it"))


# --------------------------------------------------------------------------
# Optional libclang refinement (R1 receiver-type confirmation)
# --------------------------------------------------------------------------

def refine_r1_with_libclang(findings: list[Finding],
                            paths: dict[str, str]) -> list[Finding]:
    """Drop R1 findings whose receiver libclang proves is NOT ssmis::Graph.

    Best-effort: any import/parse failure returns the findings untouched
    (the token verdicts stand — the fallback is the engine of record).
    """
    try:
        from clang import cindex  # type: ignore
    except Exception:
        return findings
    r1_by_file: dict[str, list[Finding]] = {}
    for f in findings:
        if f.rule == "R1":
            r1_by_file.setdefault(f.path, []).append(f)
    if not r1_by_file:
        return findings
    keep = [f for f in findings if f.rule != "R1"]
    try:
        index = cindex.Index.create()
        for rel, flist in r1_by_file.items():
            abspath = paths.get(rel, rel)
            tu = index.parse(abspath, args=["-std=c++20",
                                            "-I", os.path.join(REPO_ROOT,
                                                               "src")])
            confirmed_lines: set[int] = set()
            for cur in tu.cursor.walk_preorder():
                if cur.kind != cindex.CursorKind.CALL_EXPR:
                    continue
                if cur.spelling not in ("neighbors", "offsets", "adjacency"):
                    continue
                ref = cur.referenced
                if ref is None:
                    confirmed_lines.add(cur.location.line)  # unresolved: keep
                    continue
                parent = ref.semantic_parent
                if parent is not None and parent.spelling == "Graph":
                    confirmed_lines.add(cur.location.line)
            for f in flist:
                if f.line in confirmed_lines:
                    keep.append(f)
        return keep
    except Exception:
        return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

CPP_EXTS = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh")


def collect_files(roots: list[str]) -> list[str]:
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            for fn in sorted(filenames):
                if fn.endswith(CPP_EXTS):
                    files.append(os.path.join(dirpath, fn))
    return sorted(set(files))


def lint_file(path: str, rules: set[str],
              honor_suppressions: bool = True) -> list[Finding]:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    rel = rel_path(path)
    src = SourceFile(path, text)
    findings: list[Finding] = []
    if "R1" in rules:
        check_r1(src, rel, findings)
    if "R2" in rules:
        check_r2(src, rel, findings)
    if "R3" in rules:
        check_r3(src, rel, findings)
    if "R4" in rules:
        check_r4(src, rel, findings)
    if honor_suppressions:
        for f in findings:
            for (rset, reason) in src.suppressions.get(f.line, []):
                if f.rule in rset:
                    if reason:
                        f.suppressed = True
                    else:
                        f.bad_suppression = True
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def render_table(findings: list[Finding]) -> str:
    lines = []
    width = max((len(f"{f.path}:{f.line}") for f in findings), default=0)
    width = max(width, len("FILE:LINE"))
    lines.append(f"{'FILE:LINE':<{width}}  RULE  {'FINDING'}")
    for f in findings:
        loc = f"{f.path}:{f.line}"
        tag = f"{f.rule} ({RULES[f.rule]})"
        lines.append(f"{loc:<{width}}  {f.rule}    {f.message}")
        lines.append(f"{'':<{width}}        rule: {tag}")
        lines.append(f"{'':<{width}}        hint: {f.hint}")
        if f.bad_suppression:
            lines.append(f"{'':<{width}}        note: an `ssmis-lint: "
                         "allow(...)` comment matched but gave no reason — "
                         "suppressions require one")
    return "\n".join(lines)


def run_lint(args: argparse.Namespace) -> int:
    rules = set(RULES) if not args.rules else {r.strip().upper()
                                              for r in args.rules.split(",")}
    bad = rules - set(RULES)
    if bad:
        print(f"ssmis_lint: unknown rule id(s): {', '.join(sorted(bad))}",
              file=sys.stderr)
        return 2
    roots = args.paths or [os.path.join(REPO_ROOT, "src")]
    files = collect_files(roots)
    if not files:
        print("ssmis_lint: no C++ files found under: " + ", ".join(roots),
              file=sys.stderr)
        return 2
    all_findings: list[Finding] = []
    paths_by_rel: dict[str, str] = {}
    for path in files:
        paths_by_rel[rel_path(path)] = os.path.abspath(path)
        all_findings.extend(lint_file(path, rules,
                                      honor_suppressions=not args.no_suppress))
    if args.engine == "clang":
        all_findings = refine_r1_with_libclang(all_findings, paths_by_rel)
        all_findings.sort(key=lambda f: (f.path, f.line, f.rule))
    visible = [f for f in all_findings if not f.suppressed]
    suppressed = [f for f in all_findings if f.suppressed]
    if visible:
        print(render_table(visible))
        print(f"\nssmis_lint: {len(visible)} finding(s) "
              f"({len(suppressed)} suppressed) in {len(files)} file(s)")
        return 1
    print(f"ssmis_lint: clean — 0 findings ({len(suppressed)} suppressed) "
          f"in {len(files)} file(s)")
    return 0


# --------------------------------------------------------------------------
# Self-test: the linter must bite before it is allowed to gate
# --------------------------------------------------------------------------

def run_self_test(_args: argparse.Namespace) -> int:
    fixtures = os.path.join(REPO_ROOT, "tests", "lint_fixtures")
    expected_path = os.path.join(fixtures, "expected.txt")
    if not os.path.isdir(fixtures) or not os.path.isfile(expected_path):
        print(f"ssmis_lint --self-test: fixtures missing at {fixtures}",
              file=sys.stderr)
        return 2

    expected: set[tuple[str, int, str]] = set()
    with open(expected_path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            loc, rule = line.split()
            fname, lineno = loc.rsplit(":", 1)
            expected.add((fname, int(lineno), rule))

    got: set[tuple[str, int, str]] = set()
    files = collect_files([fixtures])
    for path in files:
        for f in lint_file(path, set(RULES)):
            if not f.suppressed:
                got.add((os.path.basename(f.path), f.line, f.rule))

    failures = []
    missing = expected - got
    surprise = got - expected
    if missing:
        failures.append("seeded violations the linter FAILED to catch:\n  " +
                        "\n  ".join(f"{f}:{l} {r}"
                                    for (f, l, r) in sorted(missing)))
    if surprise:
        failures.append("findings not in the golden expectations:\n  " +
                        "\n  ".join(f"{f}:{l} {r}"
                                    for (f, l, r) in sorted(surprise)))

    # The suppressed fixture must be clean WITH suppressions and dirty
    # WITHOUT them — both directions, or the allow() machinery is dead.
    suppressed_fixture = os.path.join(fixtures, "suppressed.cpp")
    if os.path.isfile(suppressed_fixture):
        with_supp = [f for f in lint_file(suppressed_fixture, set(RULES))
                     if not f.suppressed]
        without = lint_file(suppressed_fixture, set(RULES),
                            honor_suppressions=False)
        if with_supp:
            failures.append(
                "suppressed.cpp: allow() comments did not suppress: " +
                ", ".join(f"line {f.line} {f.rule}" for f in with_supp))
        if not without:
            failures.append("suppressed.cpp: produced no findings even with "
                            "suppressions ignored — the fixture is not "
                            "exercising anything")
    else:
        failures.append("suppressed.cpp fixture is missing")

    if failures:
        print("ssmis_lint --self-test FAILED:\n" + "\n".join(failures),
              file=sys.stderr)
        return 2
    print(f"ssmis_lint --self-test: OK — {len(expected)} seeded violations "
          f"caught with the right rule ids, clean fixture clean, "
          "suppressions verified in both directions")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        prog="ssmis_lint.py",
        description="repo-specific determinism & invariant linter "
                    "(rules R1-R4; see the module docstring)")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: src/)")
    ap.add_argument("--rules", default="",
                    help="comma-separated rule ids to run (default: all)")
    ap.add_argument("--engine", choices=("tokens", "clang"), default="tokens",
                    help="analysis engine; 'clang' refines R1 with libclang "
                         "when importable, falling back to token verdicts")
    ap.add_argument("--no-suppress", action="store_true",
                    help="ignore ssmis-lint: allow(...) comments")
    ap.add_argument("--self-test", action="store_true",
                    help="run the mutation self-test over "
                         "tests/lint_fixtures/ and exit")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule table and exit")
    args = ap.parse_args()
    if args.list_rules:
        for rid, name in RULES.items():
            print(f"{rid}  {name}")
        return 0
    if args.self_test:
        return run_self_test(args)
    return run_lint(args)


if __name__ == "__main__":
    sys.exit(main())
