// One DAG-Rider process, stacked as the paper describes it: reliable
// broadcast, DAG construction (Alg. 2) and wave ordering with a global coin
// (Alg. 3). core::Replica is the only place in src/ that assembles that
// stack (daglint rule `replica-assembly`); the simulator harness
// (core::System) and the threaded runtime (node::Node) are shells that own
// one and add their clock, logs and I/O around it.
#pragma once

#include <cstdint>
#include <memory>

#include "coin/coin.hpp"
#include "coin/dealer.hpp"
#include "core/byzantine.hpp"
#include "core/ordering.hpp"
#include "dag/builder.hpp"
#include "net/bus.hpp"
#include "rbc/factory.hpp"

namespace dr::core {

enum class CoinMode {
  kLocal,      ///< perfect-coin oracle (unit/experiment isolation)
  kThreshold,  ///< threshold coin, shares broadcast on the coin channel
  kPiggyback,  ///< threshold coin, shares embedded in DAG vertices (fn. 1)
};

/// The protocol knobs of one process. SystemConfig and NodeOptions inherit
/// them and set their own coin_mode / builder defaults.
struct ReplicaOptions {
  rbc::RbcKind rbc_kind = rbc::RbcKind::kBracha;
  CoinMode coin_mode = CoinMode::kThreshold;
  /// Which commit rule orders the DAG (DESIGN.md §14). kBullshark forces
  /// builder.rounds_per_wave to 2 (its wave geometry).
  OrderingKind ordering = OrderingKind::kDagRider;
  BullsharkOptions bullshark{};
  /// Rounds per wave / weak-edge ablation / auto-block knobs.
  dag::BuilderOptions builder{};
  /// DAG garbage-collection window in rounds; 0 disables GC (the paper's
  /// unbounded semantics). See OrderingRule::enable_gc for the trade-off.
  Round gc_depth_rounds = 0;
  std::uint64_t seed = 1;
};

/// Builds the common coin for `mode`. `dealer` must outlive the coin and is
/// required for the threshold modes; kLocal derives its oracle from `seed`.
std::unique_ptr<coin::Coin> make_coin(CoinMode mode, net::Bus& bus,
                                      ProcessId pid,
                                      const coin::CoinDealer* dealer,
                                      std::uint64_t seed);

class Replica {
 public:
  /// Builds RBC -> coin -> DagBuilder -> ordering on `bus`. A non-honest
  /// `byzantine` profile swaps the RBC for the attacking one
  /// (core/byzantine.hpp); everything above it stays honest.
  Replica(net::Bus& bus, ProcessId pid, const ReplicaOptions& opts,
          const coin::CoinDealer* dealer,
          ByzantineProfile byzantine = ByzantineProfile::kHonest);

  /// builder().options().rounds_per_wave is the effective wave length,
  /// after the ordering personality's override.
  dag::DagBuilder& builder() { return *builder_; }
  const dag::DagBuilder& builder() const { return *builder_; }
  OrderingRule& rider() { return *rider_; }
  const OrderingRule& rider() const { return *rider_; }
  rbc::ReliableBroadcast& rbc() { return *rbc_; }
  coin::Coin& coin() { return *coin_; }
  /// Attacks launched by the Byzantine RBC; 0 for an honest replica.
  std::uint64_t attacks() const { return byz_ != nullptr ? byz_->attacks() : 0; }

 private:
  std::unique_ptr<rbc::ReliableBroadcast> rbc_;
  ByzantineRbc* byz_ = nullptr;  ///< rbc_ downview when Byzantine
  std::unique_ptr<coin::Coin> coin_;
  std::unique_ptr<dag::DagBuilder> builder_;
  std::unique_ptr<OrderingRule> rider_;
};

}  // namespace dr::core
