// System harness: runs n DAG-Rider processes (one core::Replica each) on
// the simulated network, injects faults, and exposes delivered logs. This is
// the top-level entry point a library user instantiates; every test, bench,
// and example builds on it.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "coin/dealer.hpp"
#include "core/records.hpp"
#include "core/replica.hpp"
#include "crypto/sha256.hpp"
#include "sim/adversary.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace dr::core {

enum class FaultKind {
  kNone,
  kCrash,       ///< sends and receives nothing, ever
  kSilent,      ///< participates in others' broadcasts but proposes nothing
  kEquivocate,  ///< ByzantineProfile::kEquivocate: conflicting vertices to
                ///< different halves (Bracha RBC only; RBC must defuse it)
  kStealthy,    ///< behaves exactly like a correct process but counts as
                ///< Byzantine — the chain-quality worst case, where the
                ///< adversary's processes participate fully to claim as
                ///< many slots of every ordered prefix as possible
};

/// Protocol knobs come from ReplicaOptions (threshold coin, auto blocks of
/// 64 bytes by default); the rest shapes the simulated world.
struct SystemConfig : ReplicaOptions {
  SystemConfig()
      : ReplicaOptions{.builder = {.auto_blocks = true,
                                   .auto_block_size = 64}} {}

  Committee committee = Committee::for_f(1);
  /// Delay model; nullptr -> UniformDelay(1, 100).
  std::unique_ptr<sim::DelayModel> delays;
  /// fault[pid] (missing entries default kNone). At most f non-kNone.
  std::vector<FaultKind> faults;
};

/// One simulated process: a core::Replica plus sim-time-stamped delivery
/// and commit logs. DeliveredRecord / CommitRecord live in core/records.hpp,
/// shared with the threaded runtime (node::Node) and core/audit.hpp.
class Node {
 public:
  Node(sim::Network& net, ProcessId pid, const SystemConfig& cfg,
       const coin::CoinDealer* dealer, sim::Simulator& sim);

  Replica& replica() { return replica_; }
  const Replica& replica() const { return replica_; }
  dag::DagBuilder& builder() { return replica_.builder(); }
  OrderingRule& rider() { return replica_.rider(); }
  coin::Coin& coin() { return replica_.coin(); }

  const std::vector<DeliveredRecord>& delivered() const { return delivered_; }
  const std::vector<CommitRecord>& commits() const { return commits_; }

  /// Application-level delivery hook, invoked after the harness records the
  /// delivery. Lets applications (state machines, mempools, workload
  /// generators) consume block contents without replacing the bookkeeping.
  using AppDeliverFn = std::function<void(const Bytes& block, Round r, ProcessId source)>;
  void set_app_deliver(AppDeliverFn fn) { app_deliver_ = std::move(fn); }

 private:
  Replica replica_;
  std::vector<DeliveredRecord> delivered_;
  std::vector<CommitRecord> commits_;
  AppDeliverFn app_deliver_;
};

class System {
 public:
  explicit System(SystemConfig cfg);
  ~System();

  /// Starts all non-faulty (and equivocating) processes.
  void start();

  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *net_; }
  const Committee& committee() const { return cfg_.committee; }
  std::uint32_t n() const { return cfg_.committee.n; }

  bool is_correct(ProcessId pid) const {
    return cfg_.faults[pid] == FaultKind::kNone;
  }
  std::vector<ProcessId> correct_ids() const;
  Node& node(ProcessId pid) { return *nodes_[pid]; }
  const Node& node(ProcessId pid) const { return *nodes_[pid]; }

  /// Runs until every correct process has a_delivered >= count blocks.
  /// Returns false if the simulation stalled or max_events elapsed first.
  bool run_until_delivered(std::uint64_t count, std::uint64_t max_events = 50'000'000);

 private:
  SystemConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<coin::CoinDealer> dealer_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// Test/analysis helpers over delivered logs.

/// True iff every pair of correct logs is prefix-consistent (Total Order).
bool prefix_consistent(const System& sys);

/// Chain quality of the longest common delivered prefix: fraction of
/// blocks proposed by correct processes.
double chain_quality(const System& sys);

}  // namespace dr::core
