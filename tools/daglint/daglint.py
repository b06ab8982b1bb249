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

Usage:
  daglint.py [--rules r1,r2] [--list-rules] PATH...
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".hh"}

ALLOW_RE = re.compile(r"//\s*daglint:\s*allow\(([a-z0-9_,\s-]+)\)")


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

    def allowed(lineno: int, rule: str) -> bool:
        if lineno - 1 >= len(raw_lines):
            return False
        m = ALLOW_RE.search(raw_lines[lineno - 1])
        if not m:
            return False
        allowed_rules = {r.strip() for r in m.group(1).split(",")}
        return rule in allowed_rules

    def report(lineno: int, rule: str, message: str):
        if rule in rules and not allowed(lineno, rule):
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
    nfiles = 0
    for f in iter_sources(args.paths):
        nfiles += 1
        try:
            text = f.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            print(f"daglint: cannot read {f}: {e}", file=sys.stderr)
            return 2
        findings.extend(check_file(f, text, rules))

    for fi in findings:
        print(fi)
    summary = f"daglint: {nfiles} files, {len(findings)} finding(s)"
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
