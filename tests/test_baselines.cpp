// Tests for the Table-1 baselines: VABA, AVID dispersal, Dumbo-MVBA, and
// the slot-parallel SMR driver (crash-fault model, per DESIGN.md §3).
#include <gtest/gtest.h>

#include <map>

#include "baselines/smr/slot_smr.hpp"
#include "coin/threshold_coin.hpp"
#include "rbc/avid_dispersal.hpp"
#include "sim/network.hpp"

namespace dr::baselines {
namespace {

/// Builds n VABA instances over a shared threshold coin.
class VabaHarness {
 public:
  VabaHarness(Committee c, std::uint64_t seed,
              std::unique_ptr<sim::DelayModel> delays = nullptr)
      : committee_(c),
        sim_(seed),
        net_(sim_, c,
             delays ? std::move(delays)
                    : std::make_unique<sim::UniformDelay>(1, 50)),
        dealer_(seed ^ 0xD, c) {
    for (ProcessId p = 0; p < c.n; ++p) {
      coins_.push_back(std::make_unique<coin::ThresholdCoin>(
          net_, coin::ProcessCoinKey(&dealer_, p)));
      decisions_.emplace_back();
      vabas_.push_back(std::make_unique<Vaba>(
          net_, p, *coins_[p],
          [this, p](SlotId slot, ProcessId proposer, const Bytes& value) {
            decisions_[p][slot] = {proposer, value};
          }));
    }
  }

  Committee committee_;
  sim::Simulator sim_;
  sim::Network net_;
  coin::CoinDealer dealer_;
  std::vector<std::unique_ptr<coin::ThresholdCoin>> coins_;
  std::vector<std::unique_ptr<Vaba>> vabas_;
  std::vector<std::map<SlotId, std::pair<ProcessId, Bytes>>> decisions_;
};

Bytes value_of(ProcessId p) { return Bytes{0x10, static_cast<std::uint8_t>(p)}; }

TEST(Vaba, AgreementAndTerminationFaultFree) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    VabaHarness h(Committee::for_f(1), seed);
    for (ProcessId p = 0; p < 4; ++p) h.vabas_[p]->propose(1, value_of(p));
    h.sim_.run();
    // Every process decided slot 1, on the same value.
    ASSERT_EQ(h.decisions_[0].count(1), 1u) << "seed " << seed;
    const Bytes& v0 = h.decisions_[0][1].second;
    for (ProcessId p = 1; p < 4; ++p) {
      ASSERT_EQ(h.decisions_[p].count(1), 1u);
      EXPECT_EQ(h.decisions_[p][1].second, v0) << "seed " << seed;
    }
    // The decided value is some process's actual proposal (validity).
    bool is_someones = false;
    for (ProcessId p = 0; p < 4; ++p) is_someones |= v0 == value_of(p);
    EXPECT_TRUE(is_someones);
  }
}

TEST(Vaba, ToleratesFCrashes) {
  VabaHarness h(Committee::for_f(2), 5);  // n = 7
  h.net_.crash(5);
  h.net_.crash(6);
  for (ProcessId p = 0; p < 5; ++p) h.vabas_[p]->propose(1, value_of(p));
  h.sim_.run();
  const Bytes& v0 = h.decisions_[0][1].second;
  for (ProcessId p = 0; p < 5; ++p) {
    ASSERT_EQ(h.decisions_[p].count(1), 1u) << "process " << p;
    EXPECT_EQ(h.decisions_[p][1].second, v0);
  }
}

TEST(Vaba, MultipleConcurrentSlotsStayIsolated) {
  VabaHarness h(Committee::for_f(1), 6);
  for (SlotId s = 1; s <= 5; ++s) {
    for (ProcessId p = 0; p < 4; ++p) {
      Bytes v = value_of(p);
      v.push_back(static_cast<std::uint8_t>(s));
      h.vabas_[p]->propose(s, std::move(v));
    }
  }
  h.sim_.run();
  for (SlotId s = 1; s <= 5; ++s) {
    ASSERT_EQ(h.decisions_[0].count(s), 1u);
    for (ProcessId p = 1; p < 4; ++p) {
      EXPECT_EQ(h.decisions_[p][s].second, h.decisions_[0][s].second);
    }
  }
}

TEST(Vaba, ExpectedConstantViews) {
  // Across seeds, the mean views-to-decide should be small (theory: < 3/2
  // against the strongest adversary; benign schedules land near 1).
  double total_views = 0;
  int runs = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    VabaHarness h(Committee::for_f(1), seed * 17);
    for (ProcessId p = 0; p < 4; ++p) h.vabas_[p]->propose(1, value_of(p));
    h.sim_.run();
    ASSERT_TRUE(h.vabas_[0]->decided(1));
    total_views += static_cast<double>(h.vabas_[0]->views_used(1));
    ++runs;
  }
  EXPECT_LT(total_views / runs, 2.5);
}

TEST(Vaba, AdversarialDelaysDoNotBlock) {
  VabaHarness h(Committee::for_f(1), 7,
                std::make_unique<sim::RotatingDelay>(4, 1, 300, 30, 400));
  for (ProcessId p = 0; p < 4; ++p) h.vabas_[p]->propose(1, value_of(p));
  h.sim_.run();
  for (ProcessId p = 0; p < 4; ++p) EXPECT_TRUE(h.vabas_[p]->decided(1));
}

// ---------------------------------------------------------------------------
// AVID dispersal.

class DispersalHarness {
 public:
  explicit DispersalHarness(Committee c, std::uint64_t seed = 1)
      : sim_(seed), net_(sim_, c, std::make_unique<sim::UniformDelay>(1, 30)) {
    for (ProcessId p = 0; p < c.n; ++p) {
      nodes_.push_back(std::make_unique<rbc::AvidDispersal>(net_, p));
    }
  }
  sim::Simulator sim_;
  sim::Network net_;
  std::vector<std::unique_ptr<rbc::AvidDispersal>> nodes_;
};

TEST(AvidDispersal, DisperseThenRetrieveFromAnyProcess) {
  DispersalHarness h(Committee::for_f(1));
  Bytes value(5000);
  Xoshiro256 rng(3);
  for (auto& b : value) b = static_cast<std::uint8_t>(rng());

  const crypto::Digest root = h.nodes_[0]->disperse(value);
  h.sim_.run();
  EXPECT_TRUE(h.nodes_[1]->is_available(root));

  std::map<ProcessId, Bytes> retrieved;
  for (ProcessId p = 0; p < 4; ++p) {
    h.nodes_[p]->retrieve(root, [&, p](const crypto::Digest&, Bytes v) {
      retrieved[p] = std::move(v);
    });
  }
  h.sim_.run();
  ASSERT_EQ(retrieved.size(), 4u);
  for (auto& [p, v] : retrieved) EXPECT_EQ(v, value) << "process " << p;
}

TEST(AvidDispersal, RetrievalWorksWithFCrashedHolders) {
  DispersalHarness h(Committee::for_f(2));  // n = 7, k = 3
  Bytes value(1000, 0x42);
  const crypto::Digest root = h.nodes_[0]->disperse(value);
  h.sim_.run();
  // Crash f holders AFTER dispersal; 2f+1 fragments remain.
  h.net_.crash(5);
  h.net_.crash(6);
  Bytes got;
  h.nodes_[4]->retrieve(root, [&](const crypto::Digest&, Bytes v) {
    got = std::move(v);
  });
  h.sim_.run();
  EXPECT_EQ(got, value);
}

TEST(AvidDispersal, DispersalBytesScaleSubQuadratically) {
  // Dispersing |v| bytes costs O(|v| + n log n), NOT O(n |v|): compare the
  // network bytes against the naive n*|v| floor.
  const Committee c = Committee::for_n(16);
  DispersalHarness h(c, 2);
  Bytes value(64'000, 0x7);
  h.nodes_[0]->disperse(value);
  h.sim_.run();
  const std::uint64_t bytes = h.net_.total_bytes_sent();
  EXPECT_LT(bytes, 16u * value.size() / 2)
      << "dispersal should not replicate the payload n times";
  EXPECT_GT(bytes, value.size());  // must at least carry the payload once
}

TEST(AvidDispersal, RetrieveBeforeFragmentsArriveStillCompletes) {
  DispersalHarness h(Committee::for_f(1), 5);
  Bytes value(300, 0x9);
  // Process 3 asks for the root before the dispersal has even started
  // propagating: pending requests must be served when fragments land.
  const crypto::Digest root = [&] {
    crypto::ReedSolomon rs(2, 2);
    return crypto::MerkleTree(rs.encode(value)).root();
  }();
  Bytes got;
  h.nodes_[3]->retrieve(root, [&](const crypto::Digest&, Bytes v) {
    got = std::move(v);
  });
  h.sim_.run();
  EXPECT_TRUE(got.empty());  // nothing to retrieve yet
  h.nodes_[0]->disperse(value);
  h.sim_.run();
  EXPECT_EQ(got, value);
}

// ---------------------------------------------------------------------------
// Dumbo-MVBA.

class DumboHarness {
 public:
  DumboHarness(Committee c, std::uint64_t seed)
      : sim_(seed),
        net_(sim_, c, std::make_unique<sim::UniformDelay>(1, 40)),
        dealer_(seed ^ 0xD, c) {
    for (ProcessId p = 0; p < c.n; ++p) {
      coins_.push_back(std::make_unique<coin::ThresholdCoin>(
          net_, coin::ProcessCoinKey(&dealer_, p)));
      decisions_.emplace_back();
      nodes_.push_back(std::make_unique<DumboMvba>(
          net_, p, *coins_[p],
          [this, p](SlotId slot, ProcessId proposer, const Bytes& value) {
            decisions_[p][slot] = {proposer, value};
          }));
    }
  }
  sim::Simulator sim_;
  sim::Network net_;
  coin::CoinDealer dealer_;
  std::vector<std::unique_ptr<coin::ThresholdCoin>> coins_;
  std::vector<std::unique_ptr<DumboMvba>> nodes_;
  std::vector<std::map<SlotId, std::pair<ProcessId, Bytes>>> decisions_;
};

TEST(Dumbo, DecidesOneProposersBatchEverywhere) {
  DumboHarness h(Committee::for_f(1), 3);
  std::vector<Bytes> batches;
  for (ProcessId p = 0; p < 4; ++p) {
    Bytes b(600, static_cast<std::uint8_t>(p + 1));
    batches.push_back(b);
    h.nodes_[p]->propose(1, std::move(b));
  }
  h.sim_.run();
  ASSERT_EQ(h.decisions_[0].count(1), 1u);
  const auto& [winner, value] = h.decisions_[0][1];
  EXPECT_EQ(value, batches[winner]);
  for (ProcessId p = 1; p < 4; ++p) {
    ASSERT_EQ(h.decisions_[p].count(1), 1u);
    EXPECT_EQ(h.decisions_[p][1].second, value);
    EXPECT_EQ(h.decisions_[p][1].first, winner);
  }
}

TEST(Dumbo, ToleratesFCrashes) {
  DumboHarness h(Committee::for_f(1), 4);
  h.net_.crash(3);
  for (ProcessId p = 0; p < 3; ++p) {
    h.nodes_[p]->propose(1, Bytes(200, static_cast<std::uint8_t>(p)));
  }
  h.sim_.run();
  for (ProcessId p = 0; p < 3; ++p) {
    ASSERT_TRUE(h.nodes_[p]->decided(1)) << "process " << p;
    EXPECT_EQ(h.decisions_[p][1].second, h.decisions_[0][1].second);
  }
}

TEST(Dumbo, CheaperThanVabaOnLargeBatches) {
  // The whole point of Dumbo: with big batches, bytes/decision is far below
  // VABA's (which hauls full batches through every promotion step).
  const Committee c = Committee::for_n(10);
  const std::size_t batch = 20'000;

  VabaHarness hv(c, 9);
  for (ProcessId p = 0; p < c.n; ++p) {
    hv.vabas_[p]->propose(1, Bytes(batch, static_cast<std::uint8_t>(p)));
  }
  hv.sim_.run();
  const std::uint64_t vaba_bytes = hv.net_.total_bytes_sent();

  DumboHarness hd(c, 9);
  for (ProcessId p = 0; p < c.n; ++p) {
    hd.nodes_[p]->propose(1, Bytes(batch, static_cast<std::uint8_t>(p)));
  }
  hd.sim_.run();
  const std::uint64_t dumbo_bytes = hd.net_.total_bytes_sent();

  ASSERT_TRUE(hd.nodes_[0]->decided(1));
  EXPECT_LT(dumbo_bytes * 3, vaba_bytes)
      << "dumbo=" << dumbo_bytes << " vaba=" << vaba_bytes;
}

// ---------------------------------------------------------------------------
// Slot-parallel SMR driver.

TEST(SlotSmr, OutputsInOrderWithAgreement) {
  for (SmrBackend backend : {SmrBackend::kVaba, SmrBackend::kDumbo}) {
    SmrSystemConfig cfg;
    cfg.committee = Committee::for_f(1);
    cfg.seed = 77;
    cfg.backend = backend;
    cfg.batch_size = 128;
    SmrSystem sys(std::move(cfg));
    sys.start();
    ASSERT_TRUE(sys.run_until_output(8)) << to_string(backend);
    for (ProcessId p = 0; p < 4; ++p) {
      const auto& outs = sys.node(p).outputs();
      ASSERT_GE(outs.size(), 8u);
      for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(outs[i].slot, i + 1);  // in order, no gaps
        EXPECT_EQ(outs[i].batch_digest, sys.node(0).outputs()[i].batch_digest);
        EXPECT_EQ(outs[i].proposer, sys.node(0).outputs()[i].proposer);
      }
    }
  }
}

TEST(SlotSmr, SurvivesCrashFault) {
  SmrSystemConfig cfg;
  cfg.committee = Committee::for_f(1);
  cfg.seed = 78;
  cfg.backend = SmrBackend::kVaba;
  cfg.crashed = {3};
  SmrSystem sys(std::move(cfg));
  sys.start();
  ASSERT_TRUE(sys.run_until_output(5));
}

TEST(SlotSmr, DropsSomeCorrectProposals) {
  // The fairness gap of Table 1: only one proposer wins each slot, so some
  // correct processes' batches are never ordered (no eventual fairness) —
  // in contrast to DAG-Rider where every proposal lands.
  SmrSystemConfig cfg;
  cfg.committee = Committee::for_f(2);  // n = 7
  cfg.seed = 79;
  cfg.backend = SmrBackend::kVaba;
  SmrSystem sys(std::move(cfg));
  sys.start();
  ASSERT_TRUE(sys.run_until_output(10));
  // Count how many of the 7*10 proposals made it: exactly 10 (one/slot).
  const auto& outs = sys.node(0).outputs();
  std::set<std::pair<SlotId, ProcessId>> winners;
  for (std::size_t i = 0; i < 10; ++i) {
    winners.emplace(outs[i].slot, outs[i].proposer);
  }
  EXPECT_EQ(winners.size(), 10u);
  // 7 proposals per slot, 1 winner: 60 of 70 proposals dropped.
}

}  // namespace
}  // namespace dr::baselines
