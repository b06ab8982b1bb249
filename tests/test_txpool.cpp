// Tests: the transaction block codec (encode/decode round trips and
// defensive parsing of foreign bytes).
#include <gtest/gtest.h>

#include "txpool/transaction.hpp"

namespace dr::txpool {
namespace {

Transaction make_tx(std::uint64_t id, std::size_t size = 8) {
  Transaction tx;
  tx.id = id;
  tx.submit_time = id * 10;
  tx.payload.assign(size, static_cast<std::uint8_t>(id));
  return tx;
}

TEST(TxBlock, EncodeDecodeRoundTrip) {
  std::vector<Transaction> txs;
  for (std::uint64_t i = 1; i <= 5; ++i) txs.push_back(make_tx(i, 16 + i));
  const Bytes block = encode_block(txs);
  auto back = decode_block(block);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back.value()[i].id, txs[i].id);
    EXPECT_EQ(back.value()[i].submit_time, txs[i].submit_time);
    EXPECT_EQ(back.value()[i].payload, txs[i].payload);
  }
}

TEST(TxBlock, EmptyBlockRoundTrips) {
  const Bytes block = encode_block({});
  auto back = decode_block(block);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(TxBlock, RejectsForeignBytes) {
  EXPECT_FALSE(decode_block(Bytes{}).ok());
  EXPECT_FALSE(decode_block(Bytes{1, 2, 3, 4}).ok());
  EXPECT_FALSE(decode_block(Bytes(64, 0xAB)).ok());  // auto-block filler
  // Truncated real block.
  Bytes block = encode_block({make_tx(1)});
  block.resize(block.size() - 3);
  EXPECT_FALSE(decode_block(block).ok());
}

}  // namespace
}  // namespace dr::txpool
