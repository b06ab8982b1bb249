#!/usr/bin/env python3
"""daglint — protocol-aware static analysis for the DAG-Rider tree.

Encodes the mechanical invariants behind the paper's safety argument
(Lemmas 4-8 of "All You Need is DAG") as lint rules over the C++ sources,
so the classic DAG-BFT implementation slips — off-by-one quorums, stray
threading in protocol code, blocking calls inside handlers, nondeterministic
randomness — are caught at lint time, before TSan or the log auditors run.

Rules (each suppressible per line with `// daglint: allow(<rule>)`):

  quorum-arith      Quorum thresholds must go through the named helpers
                    (Committee::quorum(), Committee::small_quorum(),
                    quorum_2f1(n), weak_quorum_f1(n)) — never inline
                    arithmetic like `2 * f + 1` or `>= f + 1`. Off-by-one
                    quorums are the canonical DAG-BFT bug; one definition
                    site keeps Lemma 4's intersection argument auditable.
                    Exempt: src/common/types.hpp (the definition site).

  thread-primitive  No std::mutex / condition_variable / atomic / thread /
                    lock machinery outside src/net/ and src/node/. The
                    protocol layers (core/, dag/, rbc/, coin/, sim/, ...)
                    are single-threaded by construction — concurrency lives
                    only at the inbox/transport boundary (DESIGN.md §8).

  blocking-call     No sleep / .wait( / raw ::recv / ::send-on-sockets in
                    src/core/, src/dag/, src/rbc/, src/coin/ handlers.
                    Handlers run on the node event loop; one blocking call
                    stalls every protocol instance hosted by that node.

  raw-random        No rand()/srand()/std::random_device/time-seeded RNG in
                    src/. Every random bit must derive from an explicit
                    seed (common/rng.hpp) or the threshold coin — otherwise
                    runs stop replaying and the adversary model is unsound.

  nodiscard-decode  Fallible decoder/send-status declarations (deserialize,
                    decode*, pop_all, try_*) must be [[nodiscard]]: a
                    dropped decode result or send status silently swallows
                    Byzantine input. Functions returning Expected<T> are
                    accepted as-is — Expected is a [[nodiscard]] class, so
                    the compiler already enforces consumption at every call
                    site (that class attribute is itself this rule's anchor:
                    removing it reintroduces findings tree-wide).

  file-io           No filesystem access (fstream, fopen/fwrite/fread,
                    std::filesystem, raw ::open) outside src/storage/. The
                    WAL + snapshot store is the single durability point of
                    the node (DESIGN.md §10); scattered file I/O would put
                    crash-recovery state where replay can't see it and
                    blocking disk calls inside protocol handlers.

  payload-hash      No bare `crypto::sha256(` outside src/crypto/ and the
                    sanctioned codec boundary (sha256_allowlist.txt next to
                    this script, matched by path suffix). Payload bytes are
                    hashed exactly once and memoized on net::Payload
                    (DESIGN.md §11); a stray sha256 call re-hashes the same
                    buffer per protocol layer and silently unwinds the
                    single-hash discipline. Domain-separated helpers
                    (sha256_tagged, sha256_portable) are exempt: the first
                    hashes non-payload protocol transcripts, the second
                    exists only for backend cross-checks.

  ingress-blocking  No blocking socket syscalls (raw ::recv/::send/::accept/
                    ::connect/::poll/::select, sleeps, condition waits) in
                    src/ingress/ outside sockets.cpp. The ingress tier runs
                    one poll()-driven I/O thread over nonblocking fds
                    (DESIGN.md §13); ingress/sockets.{hpp,cpp} is the single
                    sanctioned raw-syscall site, and one blocking call
                    anywhere else stalls every client session on the node.

  chaos-seeded      In chaos/soak sources (any path component containing
                    "chaos" or "soak"), every RNG construction
                    (Xoshiro256, SplitMix64) must take an argument that
                    references a seed identifier. The chaos harness's
                    whole value is the seed-replay contract — a violating
                    run reproduces bit-identically from its printed seed
                    (DESIGN.md §12); one ad-hoc-seeded engine silently
                    voids that for every suite built on top.

  replica-assembly  The DAG-Rider process stack (RBC + coin + DagBuilder +
                    ordering) is assembled only in src/core/replica.cpp:
                    make_ordering(), enable_coin_piggyback(),
                    make_byzantine_rbc() and ThresholdCoin construction
                    anywhere else are flagged. The simulator and the
                    threaded node once each wired the stack themselves and
                    drifted apart; one assembly point keeps the sim tests
                    and the runtime on the same replica (DESIGN.md §5).
                    Exempt: the files that declare or define each name.

  option-writer     Every field of a `struct *Options` / `*Params` /
                    `*Tweaks` / `*Config` declared under src/ must be set
                    somewhere outside its own .hpp/.cpp pair: a `.field`
                    write (`x.f = v`, `x.f += v`, `x.f.g = v`) or a
                    designated or positional initialiser (`{.f = v}`,
                    `T{a, b}`) anywhere in src, bench, examples, tools,
                    tests, fuzz or perfbench. A field only
                    its own module ever reads has one value in use and
                    should be a named constant in the code that reads it.
                    Writes are attributed to a struct by the receiver's
                    declared type where it can be read off the same file
                    (variable declarations, field types, `T{...}`); an
                    unresolvable receiver counts for every struct with a
                    field of that name. Deployment addresses (`host`,
                    `port`) are allowlisted. Runs over the tree rooted at
                    the parent of the linted `src/` directory.

Usage:
  daglint.py [--rules r1,r2] [--list-rules] PATH...
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".hh"}

ALLOW_RE = re.compile(r"//\s*daglint:\s*allow\(([a-z0-9_,\s-]+)\)")
# A `'` that continues a numeric literal (100'000, 0xFF'FF) is a C++14 digit
# separator, not the start of a char literal.
DIGIT_SEPARATOR_RE = re.compile(r"(?<![\w'])\d[\w']*$")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Lint patterns then match only real code. Newlines inside block comments
    and raw strings survive so reported line numbers stay exact.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":  # block comment
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c == "R" and nxt == '"':  # raw string literal
            m = re.match(r'R"([^(\s]{0,16})\(', text[i:])
            if m:
                terminator = ")" + m.group(1) + '"'
                j = text.find(terminator, i + m.end())
                j = n - len(terminator) if j == -1 else j
                seg = text[i : j + len(terminator)]
                out.append("".join(ch if ch == "\n" else " " for ch in seg))
                i = j + len(terminator)
            else:
                out.append(c)
                i += 1
        elif c == "'" and DIGIT_SEPARATOR_RE.search(text, max(0, i - 64), i) and \
                nxt.isalnum():  # digit separator: 100'000
            out.append(c)
            i += 1
        elif c == '"' or c == "'":  # string / char literal
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            out.append(quote + " " * (j - i - 1) + (text[j] if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_allows(raw_lines: list[str], lineno: int, rule: str) -> bool:
    """True if line `lineno` carries `// daglint: allow(<rule>)`."""
    if lineno - 1 >= len(raw_lines):
        return False
    m = ALLOW_RE.search(raw_lines[lineno - 1])
    return m is not None and rule in {r.strip() for r in m.group(1).split(",")}


def rel(path: Path) -> str:
    """Path with forward slashes, for prefix matching against rule scopes."""
    return str(path.as_posix())


def in_dirs(path: Path, names) -> bool:
    parts = rel(path).split("/")
    return any(name in parts for name in names)


# --- rules -----------------------------------------------------------------

# Inline quorum arithmetic: `2 * f + 1`, `2*f+1`, `3 * f`, or comparisons
# against `f + 1` where f is a fault-bound-looking identifier. Matches the
# committee fields (f, f_) and obvious aliases; plain loop variables named
# `i`/`k` do not hit.
QUORUM_PATTERNS = [
    re.compile(r"\b[23]\s*\*\s*(?:\w+[.\->]+)?f_?\b"),
    re.compile(r"[<>=]=?\s*(?:\w+[.\->]+)?f_?\s*\+\s*1\b"),
    re.compile(r"\b(?:\w+[.\->]+)?f_?\s*\+\s*1\s*[<>=]="),
]

THREAD_PATTERN = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(_any)?|atomic\b|atomic<|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock|thread\b|jthread\b|future|promise|barrier|"
    r"latch|counting_semaphore|binary_semaphore)"
)

BLOCKING_PATTERNS = [
    (re.compile(r"\bsleep(_for|_until)?\s*\("), "sleep in a protocol handler"),
    (re.compile(r"\.\s*wait(_for|_until)?\s*\("), "blocking wait in a protocol handler"),
    (re.compile(r"::\s*recv\s*\("), "raw socket recv in protocol code"),
    (re.compile(r"::\s*accept\s*\("), "raw socket accept in protocol code"),
    (re.compile(r"\bpoll\s*\(\s*&"), "raw poll() in protocol code"),
]

RANDOM_PATTERNS = [
    (re.compile(r"\bs?rand\s*\(\s*\)"), "libc rand()/srand() is nondeterministic across platforms"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device breaks replayability"),
    (re.compile(r"\b(mt19937(_64)?|default_random_engine)\s*\w*\s*(\(|\{)\s*(std::)?(time|random_device|chrono)"),
     "time/entropy-seeded engine breaks replayability"),
]

# Function names whose results must never be dropped. A declaration is a line
# containing `<ret> <name>(`, where <ret> is Expected<...>, optional, or bool.
NODISCARD_NAMES = re.compile(r"\b(deserialize(_from)?|decode\w*|pop_all|try_\w+)\s*\(")
# Out-of-line definitions (`Type Class::fn(...)`) inherit the attribute from
# the in-class declaration; requiring it again would be GCC-invalid.
NODISCARD_QUALIFIED_DEF = re.compile(r"\w+::(deserialize(_from)?|decode\w*|pop_all|try_\w+)\s*\(")
NODISCARD_RET = re.compile(
    r"^\s*(static\s+|virtual\s+)*(std::optional<|bool\b|std::size_t\b)"
)
NODISCARD_ATTR = "[[nodiscard]]"

FILE_IO_PATTERNS = [
    (re.compile(r"\bstd::(o|i)?fstream\b"), "iostream file handle"),
    (re.compile(r"\bf(open|reopen|write|read|close|flush|sync)\s*\("),
     "stdio file call"),
    (re.compile(r"\bstd::filesystem\b"), "std::filesystem access"),
    (re.compile(r"::\s*open\s*\("), "raw open() syscall"),
]

# Bare one-shot hash of a payload: `crypto::sha256(...)` or an unqualified
# `sha256(...)` (inside-namespace call). The trailing `\(` keeps the exempt
# helpers (sha256_tagged, sha256_portable, sha256_backend) from matching.
SHA256_CALL = re.compile(r"(?<![\w:])(?:crypto\s*::\s*)?sha256\s*\(")

# RNG construction in chaos/soak code: `Xoshiro256 rng(...)`, `SplitMix64
# h(...)`, or a temporary `SplitMix64(...)`. References and bare member
# declarations (no constructor argument list) don't hit.
CHAOS_RNG_CTOR = re.compile(r"\b(?:Xoshiro256|SplitMix64)\b(?:\s+\w+)?\s*[({]")
CHAOS_SEED_REF = re.compile(r"seed", re.IGNORECASE)
CHAOS_MARKERS = ("chaos", "soak")

PROTOCOL_DIRS = ("core", "dag", "rbc", "coin")
CONCURRENCY_DIRS = ("net", "node", "ingress")
STORAGE_DIRS = ("storage",)
CRYPTO_DIRS = ("crypto",)

# Blocking primitives forbidden in src/ingress/ outside the sanctioned
# syscall site. Raw syscalls are written at global scope (`::recv(...)`), so
# the lookbehind keeps qualified member calls (Client::connect) from hitting.
INGRESS_DIRS = ("ingress",)
INGRESS_SOCKETS_SUFFIX = "ingress/sockets.cpp"
INGRESS_BLOCKING_PATTERNS = [
    (re.compile(r"(?<![\w:])::\s*(recv|send|sendto|recvfrom|accept4?|connect|"
                r"read|write|poll|ppoll|select|epoll_wait)\s*\("),
     "raw socket/syscall"),
    (re.compile(r"\bsleep(_for|_until)?\s*\("), "sleep"),
    (re.compile(r"\.\s*wait(_for|_until)?\s*\("), "blocking wait"),
]

# Replica assembly: (pattern, what, files that declare/define it). Only
# REPLICA_SITE may call these. ThresholdCoin construction covers
# make_unique<...ThresholdCoin>(, `ThresholdCoin tc(`, and temporaries;
# pointers, references and casts (`ThresholdCoin*`, `ThresholdCoin&`) don't hit.
REPLICA_SITE = "core/replica.cpp"
REPLICA_ASSEMBLY = [
    (re.compile(r"\bmake_ordering\s*\("), "make_ordering()",
     ("core/ordering.hpp", "core/ordering.cpp")),
    (re.compile(r"\benable_coin_piggyback\s*\("), "enable_coin_piggyback()",
     ("dag/builder.hpp",)),
    (re.compile(r"\bmake_byzantine_rbc\s*\("), "make_byzantine_rbc()",
     ("core/byzantine.hpp", "core/byzantine.cpp")),
    (re.compile(r"\bThresholdCoin\b\s*(?:>\s*\(|\w+\s*[({]|[({])"),
     "ThresholdCoin construction",
     ("coin/threshold_coin.hpp", "coin/threshold_coin.cpp")),
]

# Option structs (option-writer): the declaring struct, its base list, and
# every enclosing class, so nested `Client::Options` keeps its qualifier.
OPTION_STRUCT_RE = re.compile(
    r"\bstruct\s+(\w*(?:Options|Params|Tweaks|Config))\s*(?::([^{;]*))?\{")
CLASS_RE = re.compile(r"\b(?:struct|class)\s+(\w+)\s*(?:final\s*)?(?::[^{;]*)?\{")
OPTION_WRITER_ROOTS = ("src", "bench", "examples", "tools", "tests", "fuzz",
                       "perfbench")
OPTION_WRITER_ALLOWLIST = frozenset({"host", "port"})
# `x.f = v`, `x->f += v`, `x.f[i] = v` and designated `{.f = v}` / `{.f{v}}`;
# `==`, `<=`, `>=` and `!=` are comparisons, not writes.
FIELD_WRITE_RE = re.compile(
    r"(\.|->)\s*([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?"
    r"(?:(?:[-+*/%|&^]|<<|>>)?=(?!=)|\{)")
ACCESS_RE = re.compile(r"^\s*(?:(?:public|private|protected)\s*:\s*)+")
MEMBER_SKIP_RE = re.compile(
    r"^(?:using|typedef|static|friend|enum|struct|class|template|constexpr|"
    r"inline|virtual|explicit|operator)\b")
NOT_A_TYPE = frozenset({"return", "case", "else", "new", "delete", "throw",
                        "goto", "sizeof", "co_return", "co_yield"})


class OptionStruct:
    def __init__(self, path: Path, qual: tuple, bases: list):
        self.path = path
        self.qual = qual  # ("Client", "Options") for a nested struct
        self.bases = bases
        self.fields: dict[str, str] = {}  # name -> declared type
        self.lines: dict[str, int] = {}
        self.pair = {path.with_suffix(".hpp"), path.with_suffix(".cpp")}

    @property
    def name(self) -> str:
        return "::".join(self.qual)


def _match_brace(code: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def _statements(code: str, lo: int, hi: int):
    """(offset, text) of each top-level statement in code[lo:hi]. Brace
    groups stay inside their statement; one not followed by `;` or `,` (a
    function body) closes a statement of its own."""
    out, depth, start = [], 0, lo
    for i in range(lo, hi):
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                rest = code[i + 1:hi].lstrip()
                if not rest or rest[0] not in ";,":
                    out.append((start, code[start:i + 1]))
                    start = i + 1
        elif c == ";" and depth == 0:
            out.append((start, code[start:i]))
            start = i + 1
    return out


def _strip_templates(text: str) -> str:
    out, depth = [], 0
    for c in text:
        if c == "<":
            depth += 1
        elif c == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(c)
    return "".join(out)


def _member(stmt: str):
    """(name, type) of a data-member declaration; None for functions,
    constructors, aliases and nested types."""
    s = ACCESS_RE.sub("", stmt).strip()
    if not s or MEMBER_SKIP_RE.match(s):
        return None
    # Cut the default member initialiser (`= v` or `{v}`) first: no member
    # type spells `=` or `{`, and `1 << 16` must not reach the template strip.
    init = re.search(r"(?<![=!<>])=(?!=)|\{", s)
    decl = _strip_templates(s[:init.start()] if init else s)
    name = re.search(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?$", decl)
    if "(" in decl or not name or not decl[:name.start()].strip():
        return None
    return name.group(1), decl[:name.start()].strip()


def parse_option_structs(path: Path, code: str) -> list[OptionStruct]:
    classes = [(m.group(1), m.end() - 1, _match_brace(code, m.end() - 1))
               for m in CLASS_RE.finditer(code)]
    out = []
    for m in OPTION_STRUCT_RE.finditer(code):
        open_idx = m.end() - 1
        close_idx = _match_brace(code, open_idx)
        outer = tuple(name for name, lo, hi in classes
                      if lo < open_idx and close_idx < hi)
        bases = [re.sub(r"\b(?:public|private|protected|virtual)\b", "",
                        b).strip() for b in (m.group(2) or "").split(",")]
        st = OptionStruct(path, outer + (m.group(1),), [b for b in bases if b])
        for off, stmt in _statements(code, open_idx + 1, close_idx):
            member = _member(stmt)
            if member is None:
                continue
            name, type_text = member
            st.fields[name] = type_text
            at = off + re.search(r"\b" + name + r"\b", stmt).start()
            st.lines[name] = code.count("\n", 0, at) + 1
        out.append(st)
    return out


class OptionIndex:
    """Every option struct of the tree, queryable by type text."""

    def __init__(self, structs: list[OptionStruct]):
        self.structs = structs

    def by_type(self, type_text: str) -> list[OptionStruct]:
        """Option structs a (possibly qualified, cv/ref/pointer) type names."""
        t = _strip_templates(type_text)
        t = re.sub(r"\b(?:const|volatile|struct)\b|[&*]", " ", t).strip()
        m = re.search(r"([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*)$", t)
        if not m:
            return []
        comps = tuple(c.strip() for c in m.group(1).split("::"))
        return [s for s in self.structs
                if comps[-len(s.qual):] == s.qual or
                s.qual[-len(comps):] == comps]

    def declaring(self, field: str) -> list[OptionStruct]:
        return [s for s in self.structs if field in s.fields]

    def owner(self, st: OptionStruct, field: str, seen=()):
        """The struct in st's base chain that declares `field`, or None."""
        if field in st.fields:
            return st
        for base in st.bases:
            for b in self.by_type(base):
                if b not in seen and b is not st:
                    found = self.owner(b, field, seen + (st,))
                    if found is not None:
                        return found
        return None

    def field_types(self, field: str):
        """Option structs that fields named `field` hold; None when no
        option struct has such a field."""
        decl = self.declaring(field)
        if not decl:
            return None
        return [t for s in decl for t in self.by_type(s.fields[field])]


TYPE_BEFORE_RE = re.compile(
    r"([A-Za-z_][\w:]*(?:\s*<[^;{}]*>)?)\s*(?:const\s*)?[&*]*\s*$")
RECEIVER_RE = re.compile(r"(\.|->)?\s*([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?$")


@functools.lru_cache(maxsize=None)
def _var_types(code: str, var: str):
    """Declared type texts of `var` in this file; None if unknown/auto."""
    types = []
    for m in re.finditer(r"\b" + re.escape(var) + r"\b\s*[;={(,)\[]", code):
        t = TYPE_BEFORE_RE.search(code, max(0, m.start() - 160), m.start())
        if t is None or t.group(1) in NOT_A_TYPE or t.group(1).endswith(":"):
            continue
        if re.match(r"[\w:]+", t.group(1)).group(0) != "auto":
            types.append(t.group(1))
    return types or None


def _receiver(index: OptionIndex, code: str, pos: int):
    """Option structs the write at code[pos] (its `.`/`->`) may target.
    None = unresolvable; [] = resolved to something that is no option."""
    def of_var(var):
        types = _var_types(code, var)
        return None if types is None else [
            s for t in types for s in index.by_type(t)]

    before = code[max(0, pos - 200):pos].rstrip()
    if not before.endswith(("{", ",")):  # member write: x.f, a.b.f
        m = RECEIVER_RE.search(before)
        if not m or m.group(2) == "this":
            return None
        return index.field_types(m.group(2)) if m.group(1) else of_var(m.group(2))
    # Designated initialiser: the type is read off the enclosing brace.
    depth = 0
    for i in range(pos - 1, -1, -1):
        c = code[i]
        if c in "})":
            depth += 1
        elif c in "{(":
            if depth:
                depth -= 1
                continue
            if c == "(":
                return None
            head = code[max(0, i - 200):i].rstrip()
            nested = re.search(r"\.\s*([A-Za-z_]\w*)\s*=?\s*$", head)
            if nested:  # {.outer = {.f = v}}
                return index.field_types(nested.group(1))
            m = re.search(r"([A-Za-z_][\w:]*)\s*(?:<[^;{}]*>)?\s*"
                          r"(?:[A-Za-z_]\w*\s*)?=?\s*$", head)
            if not m or m.group(1) in NOT_A_TYPE:
                return None
            return index.by_type(m.group(1)) or of_var(m.group(1))
    return None


def _positional_writes(index: OptionIndex, code: str):
    """(struct, field) set by positional aggregate init `T{a, b}` / `T x{a}`:
    the first k fields in declaration order. Class heads and structs with
    bases (whose first element is the base) are skipped."""
    heads = {m.end() - 1 for m in CLASS_RE.finditer(code)}
    for m in re.finditer(r"\b([A-Za-z_][\w:]*)\s*(?:[A-Za-z_]\w*\s*)?\{", code):
        open_idx = m.end() - 1
        inner = code[open_idx + 1:_match_brace(code, open_idx)].strip()
        if open_idx in heads or not inner or inner.startswith("."):
            continue
        depth, args = 0, 1
        for c in inner:
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
            elif c == "," and depth == 0:
                args += 1
        for st in index.by_type(m.group(1)):
            if not st.bases:
                for field in list(st.fields)[:args]:
                    yield st, field


def _member_writes(index: OptionIndex, code: str):
    """(struct, field) set by `.f`/`->f` writes and designated initialisers;
    `a.b.f = v` sets b as well as f."""
    for m in FIELD_WRITE_RE.finditer(code):
        pos, field = m.start(), m.group(2)
        while index.declaring(field):
            targets = _receiver(index, code, pos)
            if targets is None:
                for st in index.declaring(field):
                    yield st, field
            else:
                for t in targets:
                    st = index.owner(t, field)
                    if st is not None:
                        yield st, field
            up = RECEIVER_RE.search(code, max(0, pos - 200), pos)
            if not up or not up.group(1):
                break
            pos, field = up.start(), up.group(2)


def check_option_writers(paths: list[Path], rules) -> list[Finding]:
    """option-writer over the option structs declared in the linted files
    under a `src/` directory; writes are searched in OPTION_WRITER_ROOTS
    next to that src/."""
    if "option-writer" not in rules:
        return []
    roots: dict[Path, list[Path]] = {}
    for p in paths:
        parts = p.resolve().parts
        if "src" in parts:
            idx = len(parts) - 1 - parts[::-1].index("src")
            roots.setdefault(Path(*parts[:idx]), []).append(p.resolve())
    findings: list[Finding] = []
    for root, decl_files in roots.items():
        raw = {f: f.read_text(encoding="utf-8") for f in decl_files}
        structs = [st for f in decl_files for st in parse_option_structs(
            f, strip_comments_and_strings(raw[f]))]
        index = OptionIndex(structs)
        written: set[tuple[int, str]] = set()
        dirs = [root / d for d in OPTION_WRITER_ROOTS if (root / d).is_dir()]
        for f in iter_sources(dirs):
            f = f.resolve()
            code = strip_comments_and_strings(f.read_text(encoding="utf-8"))
            for st, field in itertools.chain(_positional_writes(index, code),
                                             _member_writes(index, code)):
                if f not in st.pair:
                    written.add((id(st), field))
        for st in structs:
            raw_lines = raw[st.path].splitlines()
            for field, line in st.lines.items():
                if (field in OPTION_WRITER_ALLOWLIST or
                        (id(st), field) in written or
                        line_allows(raw_lines, line, "option-writer")):
                    continue
                findings.append(Finding(
                    st.path, line, "option-writer",
                    f"{st.name}::{field} is never set outside "
                    f"{st.path.stem}.{{hpp,cpp}}; with one value in use, make "
                    "it a named constant in the code that reads it"))
    return findings


SHA256_ALLOWLIST_FILE = Path(__file__).resolve().parent / "sha256_allowlist.txt"
_sha256_allowlist_cache: list[str] | None = None


def sha256_allowlist() -> list[str]:
    """Path suffixes where a bare crypto::sha256( call is sanctioned."""
    global _sha256_allowlist_cache
    if _sha256_allowlist_cache is None:
        entries: list[str] = []
        if SHA256_ALLOWLIST_FILE.is_file():
            for raw in SHA256_ALLOWLIST_FILE.read_text(encoding="utf-8").splitlines():
                entry = raw.strip()
                if entry and not entry.startswith("#"):
                    entries.append(entry)
        _sha256_allowlist_cache = entries
    return _sha256_allowlist_cache


def check_file(path: Path, text: str, rules) -> list[Finding]:
    findings: list[Finding] = []
    raw_lines = text.splitlines()
    code = strip_comments_and_strings(text)
    code_lines = code.splitlines()

    def report(lineno: int, rule: str, message: str):
        if rule in rules and not line_allows(raw_lines, lineno, rule):
            findings.append(Finding(path, lineno, rule, message))

    is_types_hpp = rel(path).endswith("common/types.hpp")
    is_chaos_code = any(
        marker in part
        for part in rel(path).lower().split("/") for marker in CHAOS_MARKERS)
    in_protocol = in_dirs(path, PROTOCOL_DIRS)
    in_concurrency = in_dirs(path, CONCURRENCY_DIRS)
    in_storage = in_dirs(path, STORAGE_DIRS)
    in_ingress_unsanctioned = (in_dirs(path, INGRESS_DIRS) and
                               not rel(path).endswith(INGRESS_SOCKETS_SUFFIX))
    sha256_sanctioned = in_dirs(path, CRYPTO_DIRS) or any(
        rel(path).endswith(entry) for entry in sha256_allowlist())

    replica_checks = [] if rel(path).endswith(REPLICA_SITE) else [
        (pat, what) for pat, what, defs in REPLICA_ASSEMBLY
        if not any(rel(path).endswith(d) for d in defs)]

    for idx, line in enumerate(code_lines, start=1):
        if not is_types_hpp:
            for pat in QUORUM_PATTERNS:
                if pat.search(line):
                    report(idx, "quorum-arith",
                           "inline quorum arithmetic; use Committee::quorum(), "
                           "Committee::small_quorum(), quorum_2f1(n), or "
                           "weak_quorum_f1(n) (Lemma 4 quorum intersection)")
                    break
        if not in_concurrency and THREAD_PATTERN.search(line):
            report(idx, "thread-primitive",
                   "threading primitive outside src/net//src/node/; protocol "
                   "code is single-threaded by construction (DESIGN.md §8)")
        if in_protocol:
            for pat, msg in BLOCKING_PATTERNS:
                if pat.search(line):
                    report(idx, "blocking-call", msg)
                    break
        for pat, msg in RANDOM_PATTERNS:
            if pat.search(line):
                report(idx, "raw-random", msg)
                break
        if not in_storage:
            for pat, msg in FILE_IO_PATTERNS:
                if pat.search(line):
                    report(idx, "file-io",
                           msg + " outside src/storage/; all durability goes "
                           "through the WAL + snapshot store (DESIGN.md §10)")
                    break
        if not sha256_sanctioned and SHA256_CALL.search(line):
            report(idx, "payload-hash",
                   "bare crypto::sha256() outside src/crypto/ and the codec "
                   "boundary; consume the memoized net::Payload::digest() "
                   "(single-hash discipline, DESIGN.md §11) or add this file "
                   "to tools/daglint/sha256_allowlist.txt")
        if in_ingress_unsanctioned:
            for pat, msg in INGRESS_BLOCKING_PATTERNS:
                if pat.search(line):
                    report(idx, "ingress-blocking",
                           msg + " in src/ingress/ outside sockets.cpp; the "
                           "ingress I/O thread must stay nonblocking "
                           "(DESIGN.md §13) — go through the ingress/"
                           "sockets.hpp wrappers")
                    break
        if is_chaos_code:
            m = CHAOS_RNG_CTOR.search(line)
            if m and not CHAOS_SEED_REF.search(line[m.end():]):
                report(idx, "chaos-seeded",
                       "RNG constructed in chaos/soak code without a seed "
                       "argument; every fault decision must be a pure "
                       "function of the plan seed or the run would stop "
                       "replaying (seed-replay contract, DESIGN.md §12)")
        for pat, what in replica_checks:
            if pat.search(line):
                report(idx, "replica-assembly",
                       what + " outside src/core/replica.cpp; build the "
                       "process stack through core::Replica (or the coin "
                       "through core::make_coin) so the simulator and the "
                       "runtime share one assembly (DESIGN.md §5)")
        if (NODISCARD_NAMES.search(line) and NODISCARD_RET.search(line) and
                not NODISCARD_QUALIFIED_DEF.search(line)):
            has_attr = NODISCARD_ATTR in line or (
                idx >= 2 and NODISCARD_ATTR in code_lines[idx - 2])
            # Call sites (obj.decode(...)) don't match NODISCARD_RET, so this
            # only fires on declarations/definitions.
            if not has_attr:
                report(idx, "nodiscard-decode",
                       "fallible decode/status function must be [[nodiscard]]: "
                       "a dropped result silently swallows Byzantine input")
    return findings


ALL_RULES = (
    "quorum-arith",
    "thread-primitive",
    "blocking-call",
    "raw-random",
    "nodiscard-decode",
    "file-io",
    "payload-hash",
    "ingress-blocking",
    "chaos-seeded",
    "replica-assembly",
    "option-writer",
)


def iter_sources(paths):
    for p in paths:
        p = Path(p)
        if p.is_file():
            if p.suffix in CPP_SUFFIXES:
                yield p
        elif p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.suffix in CPP_SUFFIXES and f.is_file():
                    yield f
        else:
            print(f"daglint: no such path: {p}", file=sys.stderr)
            sys.exit(2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files or directories to lint")
    ap.add_argument("--rules", help="comma-separated subset of rules to run")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in ALL_RULES:
            print(r)
        return 0
    if not args.paths:
        ap.error("at least one PATH required")

    rules = set(ALL_RULES)
    if args.rules:
        rules = {r.strip() for r in args.rules.split(",")}
        unknown = rules - set(ALL_RULES)
        if unknown:
            print(f"daglint: unknown rules: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    findings: list[Finding] = []
    files = list(iter_sources(args.paths))
    for f in files:
        try:
            text = f.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            print(f"daglint: cannot read {f}: {e}", file=sys.stderr)
            return 2
        findings.extend(check_file(f, text, rules))
    findings.extend(check_option_writers(files, rules))

    for fi in findings:
        print(fi)
    summary = f"daglint: {len(files)} files, {len(findings)} finding(s)"
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
