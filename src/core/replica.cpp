#include "core/replica.hpp"

#include "coin/threshold_coin.hpp"
#include "common/assert.hpp"

namespace dr::core {

std::unique_ptr<coin::Coin> make_coin(CoinMode mode, net::Bus& bus,
                                      ProcessId pid,
                                      const coin::CoinDealer* dealer,
                                      std::uint64_t seed) {
  if (mode == CoinMode::kLocal) {
    return std::make_unique<coin::LocalCoin>(seed ^ 0xC0111ULL, bus.n());
  }
  DR_ASSERT_MSG(dealer != nullptr,
                "threshold coin modes need the trusted dealer setup");
  return std::make_unique<coin::ThresholdCoin>(
      bus, coin::ProcessCoinKey(dealer, pid),
      /*broadcast_shares=*/mode == CoinMode::kThreshold);
}

Replica::Replica(net::Bus& bus, ProcessId pid, const ReplicaOptions& opts,
                 const coin::CoinDealer* dealer, ByzantineProfile byzantine) {
  rbc_ = rbc::make_factory(opts.rbc_kind)(bus, pid, opts.seed);
  if (byzantine != ByzantineProfile::kHonest) {
    DR_ASSERT_MSG(byzantine == ByzantineProfile::kMute ||
                      opts.rbc_kind == rbc::RbcKind::kBracha,
                  "crafted-SEND Byzantine profiles speak Bracha's wire format");
    auto byz = make_byzantine_rbc(byzantine, bus, pid, std::move(rbc_));
    byz_ = byz.get();
    rbc_ = std::move(byz);
  }

  coin_ = make_coin(opts.coin_mode, bus, pid, dealer, opts.seed);

  // The personality owns the wave geometry: Bullshark's commit rule is
  // defined over 2-round waves, so its choice overrides the builder knob.
  dag::BuilderOptions builder_opts = opts.builder;
  if (const Round rpw = ordering_rounds_per_wave(opts.ordering)) {
    builder_opts.rounds_per_wave = rpw;
  }
  builder_ = std::make_unique<dag::DagBuilder>(bus.committee(), pid, *rbc_,
                                               builder_opts);
  if (opts.coin_mode == CoinMode::kPiggyback) {
    auto* tc = static_cast<coin::ThresholdCoin*>(coin_.get());
    builder_->enable_coin_piggyback(
        [tc](Wave w) { return tc->share_to_embed(w); },
        [tc](ProcessId from, Wave w, std::uint64_t y) {
          tc->ingest_share(from, w, y);
        });
  }
  rider_ = make_ordering(opts.ordering, *builder_, *coin_, opts.bullshark);
  if (opts.gc_depth_rounds > 0) rider_->enable_gc(opts.gc_depth_rounds);
}

}  // namespace dr::core
