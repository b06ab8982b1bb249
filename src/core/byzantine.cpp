#include "core/byzantine.hpp"

#include "common/assert.hpp"
#include "dag/vertex.hpp"

namespace dr::core {
namespace {

/// kMute: swallows every own broadcast; everything else (echo/ready
/// participation, delivery of others' vertices) stays honest through the
/// wrapped instance, whose bus subscriptions remain live.
class MuteRbc final : public ByzantineRbc {
 public:
  explicit MuteRbc(std::unique_ptr<rbc::ReliableBroadcast> inner)
      : inner_(std::move(inner)) {}

  void set_deliver(DeliverFn fn) override { inner_->set_deliver(std::move(fn)); }
  void broadcast(Round, net::Payload) override { ++withheld_; }
  std::uint64_t attacks() const override { return withheld_; }

 private:
  std::unique_ptr<rbc::ReliableBroadcast> inner_;
  std::uint64_t withheld_ = 0;
};

/// kSelective: hand-crafts its Bracha SEND and delivers it only to the
/// quorum-sized window of ids starting at itself; the remaining f processes
/// never see a first-hand copy and must rely on echo amplification.
class SelectiveRbc final : public ByzantineRbc {
 public:
  SelectiveRbc(net::Bus& bus, ProcessId pid)
      : bus_(bus), pid_(pid), inner_(bus, pid) {}

  void set_deliver(DeliverFn fn) override { inner_.set_deliver(std::move(fn)); }

  void broadcast(Round r, net::Payload payload) override {
    const net::Payload send(encode_bracha_send(pid_, r, payload.view()));
    const std::uint32_t n = bus_.n();
    const std::uint32_t favored = quorum_2f1(n);
    for (std::uint32_t i = 0; i < favored; ++i) {
      const ProcessId to = (pid_ + i) % n;
      bus_.send(pid_, to, net::Channel::kBracha, send);
    }
    ++attacks_;
  }
  std::uint64_t attacks() const override { return attacks_; }

 private:
  net::Bus& bus_;
  ProcessId pid_;
  rbc::BrachaRbc inner_;
  std::uint64_t attacks_ = 0;
};

}  // namespace

const char* to_string(ByzantineProfile p) {
  switch (p) {
    case ByzantineProfile::kHonest: return "honest";
    case ByzantineProfile::kEquivocate: return "equivocate";
    case ByzantineProfile::kMute: return "mute";
    case ByzantineProfile::kSelective: return "selective";
  }
  return "?";
}

Bytes encode_bracha_send(ProcessId source, Round r, BytesView payload) {
  ByteWriter w(payload.size() + 20);
  w.u8(1);  // BrachaRbc::kSend
  w.u32(source);
  w.u64(r);
  w.blob(payload);
  return std::move(w).take();
}

Bytes mutate_vertex_payload(BytesView payload) {
  auto parsed = dr::dag::Vertex::deserialize(payload);
  if (!parsed) {
    Bytes copy(payload.begin(), payload.end());
    copy.push_back(0xFF);
    return copy;
  }
  dr::dag::Vertex v = std::move(parsed).value();
  v.block.push_back(0xEE);
  return v.serialize();
}

EquivocatingBrachaRbc::EquivocatingBrachaRbc(net::Bus& net, ProcessId pid)
    : net_(net), pid_(pid), inner_(net, pid) {}

void EquivocatingBrachaRbc::broadcast(Round r, net::Payload payload) {
  const Bytes variant_b = mutate_vertex_payload(payload.view());
  // Each variant is encoded once; the per-recipient sends share the buffers.
  const net::Payload send_a(encode_bracha_send(pid_, r, payload.view()));
  const net::Payload send_b(encode_bracha_send(pid_, r, variant_b));
  for (ProcessId to = 0; to < net_.n(); ++to) {
    net_.send(pid_, to, net::Channel::kBracha, to % 2 == 0 ? send_a : send_b);
  }
  ++equivocations_;
}

std::unique_ptr<ByzantineRbc> make_byzantine_rbc(
    ByzantineProfile profile, net::Bus& bus, ProcessId pid,
    std::unique_ptr<rbc::ReliableBroadcast> inner) {
  switch (profile) {
    case ByzantineProfile::kEquivocate:
      return std::make_unique<EquivocatingBrachaRbc>(bus, pid);
    case ByzantineProfile::kMute:
      return std::make_unique<MuteRbc>(std::move(inner));
    case ByzantineProfile::kSelective:
      return std::make_unique<SelectiveRbc>(bus, pid);
    case ByzantineProfile::kHonest:
      break;
  }
  DR_ASSERT_MSG(false, "make_byzantine_rbc: kHonest has no attacking wrapper");
  return nullptr;
}

}  // namespace dr::core
