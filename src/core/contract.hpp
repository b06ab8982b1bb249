// Executable contracts for the protocol layers. DR_REQUIRE / DR_ENSURE /
// DR_INVARIANT turn the paper's safety lemmas (strong-edge quorums, round
// monotonicity, no duplicate delivery, decoder dead-state absorption) into
// pre/postconditions that are *compiled in* for every Debug, sanitizer, and
// DAGRIDER_PARANOID=ON build, and compiled out of optimized release builds.
//
// Contrast with common/assert.hpp: DR_ASSERT is unconditional (hygiene checks
// cheap enough to keep everywhere); contracts may sit on hot paths and carry
// per-call bookkeeping, so they get an on/off switch. Violation always aborts
// — a broken invariant inside a BFT protocol invalidates the run, and death
// tests (tests/test_contract.cpp) rely on the abort being observable.
//
// Each instrumented site carries a comment naming the paper lemma/claim it
// guards; DESIGN.md §"Static analysis & contracts" holds the full map.
#pragma once

#include <cstdio>
#include <cstdlib>

// Contracts are active when explicitly requested (DAGRIDER_PARANOID, set by
// the CMake option of the same name), in any build without NDEBUG (Debug),
// and in sanitizer builds (the CI ASan/UBSan/TSan jobs use RelWithDebInfo,
// which defines NDEBUG — detect the sanitizers directly instead).
#if defined(DAGRIDER_PARANOID)
#define DR_CONTRACTS_ENABLED 1
#elif !defined(NDEBUG)
#define DR_CONTRACTS_ENABLED 1
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DR_CONTRACTS_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DR_CONTRACTS_ENABLED 1
#endif
#endif

#ifndef DR_CONTRACTS_ENABLED
#define DR_CONTRACTS_ENABLED 0
#endif

namespace dr::contract {

[[noreturn]] inline void violation(const char* kind, const char* expr,
                                   const char* file, int line,
                                   const char* what) {
  std::fprintf(stderr, "%s violated: %s at %s:%d — %s\n", kind, expr, file,
               line, what);
  std::abort();
}

}  // namespace dr::contract

#if DR_CONTRACTS_ENABLED

/// Precondition on the caller: fed-in state must satisfy `expr`.
#define DR_REQUIRE(expr, what)                                              \
  do {                                                                      \
    if (!(expr))                                                            \
      ::dr::contract::violation("DR_REQUIRE", #expr, __FILE__, __LINE__,    \
                                (what));                                    \
  } while (0)

/// Postcondition on this function: produced state must satisfy `expr`.
#define DR_ENSURE(expr, what)                                               \
  do {                                                                      \
    if (!(expr))                                                            \
      ::dr::contract::violation("DR_ENSURE", #expr, __FILE__, __LINE__,     \
                                (what));                                    \
  } while (0)

/// Object/loop invariant: must hold at every observation point.
#define DR_INVARIANT(expr, what)                                            \
  do {                                                                      \
    if (!(expr))                                                            \
      ::dr::contract::violation("DR_INVARIANT", #expr, __FILE__, __LINE__,  \
                                (what));                                    \
  } while (0)

/// Declares state that exists only to feed contracts (e.g. an RBC delivery
/// dedup set); compiled out with the contracts that read it. Variadic so
/// declarations containing template commas need no extra parentheses.
#define DR_CONTRACT_STATE(...) __VA_ARGS__

#else  // !DR_CONTRACTS_ENABLED

// Unevaluated operands: no side effects run, but variables read only by a
// contract still count as used, so release builds stay warning-clean.
#define DR_REQUIRE(expr, what) ((void)sizeof(!(expr)), (void)sizeof(what))
#define DR_ENSURE(expr, what) ((void)sizeof(!(expr)), (void)sizeof(what))
#define DR_INVARIANT(expr, what) ((void)sizeof(!(expr)), (void)sizeof(what))
#define DR_CONTRACT_STATE(...)

#endif  // DR_CONTRACTS_ENABLED

namespace dr::contract {

/// Recovery-phase discipline for components rebuilt from a write-ahead log
/// (PR: durable storage). Legal transitions: kFresh → kRestoring →
/// kRestored → kLive, or kFresh → kLive directly (no WAL). The phases exist
/// because replay and live operation have incompatible side effects: feeding
/// restore records into a live component would re-broadcast history, and
/// starting mid-restore would propose on top of a half-rebuilt DAG. The
/// replayed DAG itself re-enters through the ordinary gates — Dag::insert's
/// 2f+1 strong-edge DR_REQUIRE and the round-advance quorum DR_REQUIRE both
/// hold over restored state exactly as over live state.
struct RestorePhase {
  enum class Phase { kFresh, kRestoring, kRestored, kLive };
  Phase phase = Phase::kFresh;

  void begin_restore() {
    DR_REQUIRE(phase == Phase::kFresh,
               "restore must begin on a fresh component");
    phase = Phase::kRestoring;
  }
  void finish_restore() {
    DR_REQUIRE(phase == Phase::kRestoring,
               "finish_restore without begin_restore");
    phase = Phase::kRestored;
  }
  void start() {
    DR_REQUIRE(phase == Phase::kFresh || phase == Phase::kRestored,
               "component started twice or mid-restore");
    phase = Phase::kLive;
  }

  bool live() const { return phase == Phase::kLive; }
  bool restoring() const { return phase == Phase::kRestoring; }
};

}  // namespace dr::contract
