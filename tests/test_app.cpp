// Tests: the execution layer — KV command codec, deterministic state
// machine semantics, and full replicated-service consistency under faults.
#include <gtest/gtest.h>

#include "app/kvstore.hpp"
#include "app/replicated.hpp"

namespace dr::app {
namespace {

Bytes bytes_of(const char* s) {
  return Bytes(reinterpret_cast<const std::uint8_t*>(s),
               reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s));
}

Bytes put_command(std::uint64_t i) {
  KvCommand put;
  put.op = KvCommand::Op::kPut;
  put.key = "key" + std::to_string(i % 8);
  put.value = Bytes(32, static_cast<std::uint8_t>(i));
  return put.encode();
}

TEST(KvCommand, EncodeDecodeRoundTrip) {
  KvCommand cmd;
  cmd.op = KvCommand::Op::kCas;
  cmd.key = "account/alice";
  cmd.value = bytes_of("new");
  cmd.expected = bytes_of("old");
  KvCommand back;
  ASSERT_TRUE(KvCommand::decode(cmd.encode(), back));
  EXPECT_EQ(back.op, cmd.op);
  EXPECT_EQ(back.key, cmd.key);
  EXPECT_EQ(back.value, cmd.value);
  EXPECT_EQ(back.expected, cmd.expected);
}

TEST(KvCommand, RejectsGarbage) {
  KvCommand out;
  EXPECT_FALSE(KvCommand::decode(Bytes{}, out));
  EXPECT_FALSE(KvCommand::decode(Bytes{1, 2, 3}, out));
  KvCommand cmd;
  cmd.key = "k";
  Bytes enc = cmd.encode();
  enc[5] = 99;  // invalid op
  EXPECT_FALSE(KvCommand::decode(enc, out));
}

TEST(KvStore, PutDelCasSemantics) {
  KvStore kv;
  KvCommand put;
  put.op = KvCommand::Op::kPut;
  put.key = "x";
  put.value = bytes_of("1");
  EXPECT_TRUE(kv.apply(put.encode()));
  EXPECT_EQ(kv.get("x"), bytes_of("1"));

  KvCommand cas;
  cas.op = KvCommand::Op::kCas;
  cas.key = "x";
  cas.expected = bytes_of("1");
  cas.value = bytes_of("2");
  EXPECT_TRUE(kv.apply(cas.encode()));
  EXPECT_EQ(kv.get("x"), bytes_of("2"));

  // CAS with stale expectation fails deterministically.
  EXPECT_FALSE(kv.apply(cas.encode()));
  EXPECT_EQ(kv.get("x"), bytes_of("2"));

  KvCommand del;
  del.op = KvCommand::Op::kDel;
  del.key = "x";
  EXPECT_TRUE(kv.apply(del.encode()));
  EXPECT_FALSE(kv.get("x").has_value());
  EXPECT_FALSE(kv.apply(del.encode()));  // double delete rejected
  EXPECT_EQ(kv.applied_count(), 3u);
  EXPECT_EQ(kv.rejected_count(), 2u);
}

TEST(KvStore, DigestTracksStateExactly) {
  KvStore a, b;
  const crypto::Digest empty = a.state_digest();
  EXPECT_EQ(empty, b.state_digest());

  KvCommand put;
  put.op = KvCommand::Op::kPut;
  put.key = "k";
  put.value = bytes_of("v");
  a.apply(put.encode());
  EXPECT_NE(a.state_digest(), empty);
  b.apply(put.encode());
  EXPECT_EQ(a.state_digest(), b.state_digest());

  // Order of distinct keys doesn't matter (canonical map ordering)...
  KvStore c, d;
  KvCommand p1 = put, p2 = put;
  p1.key = "a";
  p2.key = "b";
  c.apply(p1.encode());
  c.apply(p2.encode());
  d.apply(p2.encode());
  d.apply(p1.encode());
  EXPECT_EQ(c.state_digest(), d.state_digest());
  // ...but conflicting writes to the SAME key do (the whole reason we need
  // total order).
  KvStore e, f;
  KvCommand w1 = put, w2 = put;
  w1.value = bytes_of("1");
  w2.value = bytes_of("2");
  e.apply(w1.encode());
  e.apply(w2.encode());
  f.apply(w2.encode());
  f.apply(w1.encode());
  EXPECT_NE(e.state_digest(), f.state_digest());
}

TEST(ReplicatedService, ReplicasConvergeUnderFaultsAndConflicts) {
  core::SystemConfig cfg;
  cfg.committee = Committee::for_f(1);
  cfg.seed = 77;
  cfg.rbc_kind = rbc::RbcKind::kBracha;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 0;
  cfg.faults.assign(4, core::FaultKind::kCrash);
  cfg.faults[0] = cfg.faults[1] = cfg.faults[2] = core::FaultKind::kNone;
  core::System sys(std::move(cfg));
  ReplicatedService svc(sys, [] { return std::make_unique<KvStore>(); });

  // Conflicting writes to the same keys submitted at different replicas:
  // only total order can make the final states agree.
  std::uint64_t id = 1;
  for (int round = 0; round < 10; ++round) {
    for (ProcessId p = 0; p < 3; ++p) {
      KvCommand cmd;
      cmd.op = KvCommand::Op::kPut;
      cmd.key = "key" + std::to_string(round % 3);
      cmd.value = Bytes{static_cast<std::uint8_t>(p),
                        static_cast<std::uint8_t>(round)};
      svc.submit(p, id++, cmd.encode());
    }
  }
  sys.start();
  svc.start();
  ASSERT_TRUE(sys.simulator().run_until(
      [&] {
        for (ProcessId p : sys.correct_ids()) {
          if (svc.machine(p).applied_count() < 30) return false;
        }
        return true;
      },
      50'000'000));
  EXPECT_TRUE(svc.replicas_consistent());
  // All replicas hold the same 3 keys with byte-identical values.
  for (ProcessId p : sys.correct_ids()) {
    auto& kv = static_cast<KvStore&>(svc.machine(p));
    EXPECT_EQ(kv.size(), 3u);
    EXPECT_EQ(kv.state_digest(),
              static_cast<KvStore&>(svc.machine(0)).state_digest());
  }
}

TEST(ReplicatedService, CasLinearizesAcrossReplicas) {
  // Two replicas race CAS("lock", "" -> own id). Exactly one must win at
  // every replica, and it must be the SAME winner everywhere.
  core::SystemConfig cfg;
  cfg.committee = Committee::for_f(1);
  cfg.seed = 78;
  cfg.rbc_kind = rbc::RbcKind::kOracle;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 0;
  core::System sys(std::move(cfg));
  ReplicatedService svc(sys, [] { return std::make_unique<KvStore>(); });

  KvCommand init;
  init.op = KvCommand::Op::kPut;
  init.key = "lock";
  init.value = bytes_of("free");
  svc.submit(0, 1, init.encode());
  for (ProcessId p = 1; p <= 2; ++p) {
    KvCommand cas;
    cas.op = KvCommand::Op::kCas;
    cas.key = "lock";
    cas.expected = bytes_of("free");
    cas.value = Bytes{static_cast<std::uint8_t>(p)};
    svc.submit(p, 1 + p, cas.encode());
  }
  sys.start();
  svc.start();
  ASSERT_TRUE(sys.simulator().run_until(
      [&] {
        for (ProcessId p : sys.correct_ids()) {
          if (svc.machine(p).applied_count() < 2) return false;  // put + 1 cas
        }
        return true;
      },
      50'000'000));
  EXPECT_TRUE(svc.replicas_consistent());
  auto& kv0 = static_cast<KvStore&>(svc.machine(0));
  const auto lock_value = kv0.get("lock");
  ASSERT_TRUE(lock_value.has_value());
  EXPECT_NE(*lock_value, bytes_of("free"));  // someone won
  for (ProcessId p : sys.correct_ids()) {
    EXPECT_EQ(static_cast<KvStore&>(svc.machine(p)).get("lock"), lock_value);
  }
}

// Transactions submitted over time at every replica commit, and the probe
// records one submit -> first-delivery latency sample per transaction.
TEST(ReplicatedService, TransactionsCommitWithMeasuredLatency) {
  core::SystemConfig cfg;
  cfg.committee = Committee::for_f(1);
  cfg.seed = 17;
  cfg.rbc_kind = rbc::RbcKind::kBracha;
  cfg.builder.auto_blocks = true;  // pad rounds when pools run dry
  cfg.builder.auto_block_size = 0;
  core::System sys(std::move(cfg));
  ReplicatedService svc(sys, [] { return std::make_unique<KvStore>(); },
                        /*batch_max=*/16);

  constexpr std::uint64_t kTxs = 100;
  for (std::uint64_t i = 1; i <= kTxs; ++i) {
    sys.simulator().schedule(5 * i, [&svc, i] {
      EXPECT_EQ(svc.submit(static_cast<ProcessId>(i % 4), i, put_command(i)),
                ingress::SubmitStatus::kAccepted);
    });
  }
  sys.start();
  svc.start();
  ASSERT_TRUE(sys.simulator().run_until(
      [&] { return svc.committed() >= kTxs; }, 30'000'000));
  EXPECT_EQ(svc.committed(), kTxs);
  EXPECT_EQ(svc.latency().count(), svc.committed());
  EXPECT_GT(svc.latency().mean(), 0.0);
  // Sanity: p95 latency is some small multiple of a wave.
  EXPECT_LT(svc.latency().percentile(0.95), 30'000.0);
  EXPECT_TRUE(svc.replicas_consistent());
}

// Each transaction lands at two replicas, and replica 3 is crashed: the
// copies at correct replicas may both be proposed, yet every transaction is
// counted (and timed) once. submit() reports the mempool's verdict.
TEST(ReplicatedService, RedundantSubmissionCommitsOnceDespiteCrash) {
  core::SystemConfig cfg;
  cfg.committee = Committee::for_f(1);
  cfg.seed = 18;
  cfg.rbc_kind = rbc::RbcKind::kOracle;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 0;
  cfg.faults.assign(4, core::FaultKind::kNone);
  cfg.faults[3] = core::FaultKind::kCrash;
  core::System sys(std::move(cfg));
  ReplicatedService svc(sys, [] { return std::make_unique<KvStore>(); });

  constexpr std::uint64_t kTxs = 50;
  for (std::uint64_t i = 1; i <= kTxs; ++i) {
    for (std::uint64_t copy = 0; copy < 2; ++copy) {
      ASSERT_EQ(svc.submit(static_cast<ProcessId>((i + copy) % 4), i,
                           put_command(i)),
                ingress::SubmitStatus::kAccepted);
    }
  }
  EXPECT_EQ(svc.submit(1, 1, put_command(1)),
            ingress::SubmitStatus::kDuplicatePending);
  sys.start();
  svc.start();
  ASSERT_TRUE(sys.simulator().run_until(
      [&] { return svc.committed() >= kTxs; }, 30'000'000));
  // Let the slower copies deliver too.
  const sim::SimTime later = sys.simulator().now() + 5'000;
  ASSERT_TRUE(sys.simulator().run_until(
      [&] { return sys.simulator().now() >= later; }, 30'000'000));
  EXPECT_GT(svc.applied_at_probe(), kTxs);  // some copy was ordered twice
  EXPECT_EQ(svc.committed(), kTxs);
  EXPECT_EQ(svc.latency().count(), kTxs);
  EXPECT_TRUE(svc.replicas_consistent());
  // Delivery cleared every copy at the correct replicas, proposed or not.
  for (ProcessId p : sys.correct_ids()) {
    EXPECT_EQ(svc.mempool(p).pending() + svc.mempool(p).in_flight(), 0u);
  }
  EXPECT_EQ(svc.submit(1, 1, put_command(1)),
            ingress::SubmitStatus::kDuplicateCommitted);
}

}  // namespace
}  // namespace dr::app
