// ReplicatedService: the simulator's client shell. Glues a core::System to
// per-replica state machines via the transaction layer: commands submitted
// at any replica flow through that replica's ingress::Mempool -> BAB
// -> deterministic execution; digests audit replica agreement, and the first
// correct replica measures submit -> first-delivery latency.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "app/state_machine.hpp"
#include "core/system.hpp"
#include "ingress/mempool.hpp"
#include "metrics/stats.hpp"

namespace dr::app {

class ReplicatedService {
 public:
  using MachineFactory = std::function<std::unique_ptr<StateMachine>()>;

  /// Builds one state machine and one mempool per process and hooks block
  /// delivery into deterministic execution. Call before System::start().
  ReplicatedService(core::System& sys, MachineFactory factory,
                    std::size_t batch_max = 32,
                    sim::SimTime pump_every = 50);

  /// Submits a command at replica `p`, stamped with the simulator clock.
  ingress::SubmitStatus submit(ProcessId p, std::uint64_t command_id,
                               Bytes command);

  /// Starts the proposal pacing loop. Call after System::start().
  void start();

  StateMachine& machine(ProcessId p) { return *machines_[p]; }
  const StateMachine& machine(ProcessId p) const { return *machines_[p]; }
  const ingress::Mempool& mempool(ProcessId p) const {
    return *pools_[p];
  }

  /// True iff all correct replicas that applied the same number of commands
  /// report the same state digest; replicas at different positions are
  /// compared on count only (prefix property handles the rest).
  bool replicas_consistent() const;

  /// Commands applied at the first correct replica.
  std::uint64_t applied_at_probe() const;

  /// Distinct transactions delivered at the first correct replica, keyed by
  /// tx digest: a command proposed by two replicas counts once.
  std::uint64_t committed() const { return committed_.size(); }
  /// Submit -> first-delivery latency (ticks) at the first correct replica,
  /// one sample per committed transaction.
  const metrics::Summary& latency() const { return latency_; }

 private:
  void schedule_pump(ProcessId p);
  void on_deliver(ProcessId p, const Bytes& block);

  core::System& sys_;
  std::size_t batch_max_;
  sim::SimTime pump_every_;
  std::vector<std::unique_ptr<StateMachine>> machines_;
  std::vector<std::unique_ptr<ingress::Mempool>> pools_;
  std::vector<ProcessId> correct_;
  std::set<crypto::Digest> committed_;
  metrics::Summary latency_;
};

}  // namespace dr::app
