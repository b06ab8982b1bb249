// core::Replica, the one assembly of a DAG-Rider process shared by the
// simulator harness and the threaded runtime: the option defaults each shell
// keeps through the shared ReplicaOptions base, and the wave geometry the
// replica derives from the ordering personality.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "node/node.hpp"

namespace dr::core {
namespace {

TEST(ReplicaOptions, SimAndNodeKeepTheirOwnDefaults) {
  const SystemConfig sim{};
  const node::NodeOptions node{};
  const dag::BuilderOptions plain{};

  EXPECT_EQ(sim.coin_mode, CoinMode::kThreshold);
  EXPECT_TRUE(sim.builder.auto_blocks);
  EXPECT_EQ(sim.builder.auto_block_size, 64u);
  EXPECT_EQ(sim.builder.lag_skip_threshold, plain.lag_skip_threshold);

  EXPECT_EQ(node.coin_mode, CoinMode::kPiggyback);
  EXPECT_TRUE(node.builder.auto_blocks);
  EXPECT_EQ(node.builder.auto_block_size, 0u);
  EXPECT_EQ(node.builder.lag_skip_threshold, 2u);

  // Everything else comes from the shared base unchanged.
  for (const ReplicaOptions* o : {static_cast<const ReplicaOptions*>(&sim),
                                  static_cast<const ReplicaOptions*>(&node)}) {
    EXPECT_EQ(o->rbc_kind, rbc::RbcKind::kBracha);
    EXPECT_EQ(o->ordering, OrderingKind::kDagRider);
    EXPECT_EQ(o->builder.rounds_per_wave, plain.rounds_per_wave);
    EXPECT_EQ(o->gc_depth_rounds, 0u);
    EXPECT_EQ(o->seed, 1u);
  }
}

TEST(Replica, OrderingPersonalityOwnsTheWaveLength) {
  const Committee committee = Committee::for_f(1);
  sim::Simulator sim(1);
  sim::Network net(sim, committee, std::make_unique<sim::UniformDelay>(1, 10));
  const coin::CoinDealer dealer(7, committee);

  ReplicaOptions opts;
  opts.builder.rounds_per_wave = 4;
  opts.ordering = OrderingKind::kBullshark;
  const Replica bullshark(net, 0, opts, &dealer);
  EXPECT_EQ(bullshark.builder().options().rounds_per_wave, 2u);

  opts.ordering = OrderingKind::kDagRider;
  const Replica rider(net, 1, opts, &dealer);
  EXPECT_EQ(rider.builder().options().rounds_per_wave, 4u);
}

}  // namespace
}  // namespace dr::core
