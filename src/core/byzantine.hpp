// Byzantine behaviour implementations: the one set of attacking reliable-
// broadcast components, seated by core::Replica for both the simulator
// harness (FaultKind::kEquivocate) and live threaded nodes
// (NodeOptions::byzantine, DESIGN.md §12). These are attack *strategies*
// within the model — the protocol must neutralize them, and the test suite
// checks that it does.
//
// Strategies are written against net::Bus, the seam shared by the simulator
// (sim::Network) and the real-concurrency runtime (node::NodeBus), so the
// exact same adversarial code runs under the discrete-event scheduler and
// inside live threaded clusters.
//
// Profiles (all strongest-form: honest participation except for the attack):
//   kEquivocate — conflicting vertex variants to each half of the committee;
//   kMute       — withholds every own broadcast (a "crashed proposer" that
//                 still echoes/readies others' traffic, keeping quorums warm
//                 while contributing no chain quality);
//   kSelective  — sends its SEND only to a 2f+1 window anchored at itself,
//                 starving a rotating f-sized blind set of first-hand copies
//                 (Bracha echo amplification must route around it).
//
// The crafted-SEND profiles (equivocate, selective) speak BrachaRbc's wire
// format and therefore require rbc_kind == kBracha; core::Replica asserts
// this.
#pragma once

#include <cstdint>
#include <memory>

#include "net/bus.hpp"
#include "rbc/bracha.hpp"
#include "rbc/rbc.hpp"

namespace dr::core {

enum class ByzantineProfile : std::uint8_t {
  kHonest = 0,
  kEquivocate,
  kMute,
  kSelective,
};

const char* to_string(ByzantineProfile p);

/// Attacking RBC: like any ReliableBroadcast, plus telemetry so tests can
/// assert the adversary actually attacked (a Byzantine test whose adversary
/// silently behaved is vacuous).
class ByzantineRbc : public rbc::ReliableBroadcast {
 public:
  virtual std::uint64_t attacks() const = 0;
};

/// Mirrors BrachaRbc's SEND wire format (type | source | round | blob).
/// Exposed so Byzantine strategies can hand-craft protocol messages the
/// honest implementation would never produce.
Bytes encode_bracha_send(ProcessId source, Round r, BytesView payload);

/// Produces a structurally valid conflicting vertex: same edges, different
/// block bytes — the nastiest equivocation variant, indistinguishable from
/// the original except by content.
Bytes mutate_vertex_payload(BytesView payload);

/// kEquivocate: on broadcast(r, m) it hand-crafts two conflicting Bracha
/// SEND messages (payload m and a mutated m') and sends one to each half of
/// the committee. It otherwise participates in the Bracha protocol honestly
/// (echoes, readies) through the wrapped instance, which is the strongest
/// profile for this attack: the split quorum can only be resolved by other
/// processes' echoes.
///
/// Reliable broadcast Agreement must ensure all correct processes deliver
/// the same variant (or none) — the equivocation tests assert exactly that.
class EquivocatingBrachaRbc final : public ByzantineRbc {
 public:
  EquivocatingBrachaRbc(net::Bus& net, ProcessId pid);

  void set_deliver(DeliverFn fn) override { inner_.set_deliver(std::move(fn)); }
  void broadcast(Round r, net::Payload payload) override;

  /// Conflicting SEND pairs launched so far.
  std::uint64_t attacks() const override { return equivocations_; }

 private:
  net::Bus& net_;
  ProcessId pid_;
  rbc::BrachaRbc inner_;
  std::uint64_t equivocations_ = 0;
};

/// Builds the attacking RBC for `profile` (never kHonest). `inner` is the
/// honestly-constructed component; kMute wraps it, the crafted-SEND
/// profiles discard it and construct their own Bracha instance (re-
/// subscribing on the bus replaces the handlers, so the discard is safe).
std::unique_ptr<ByzantineRbc> make_byzantine_rbc(
    ByzantineProfile profile, net::Bus& bus, ProcessId pid,
    std::unique_ptr<rbc::ReliableBroadcast> inner);

}  // namespace dr::core
