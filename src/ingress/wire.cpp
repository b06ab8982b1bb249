#include "ingress/wire.hpp"

namespace dr::ingress {

Bytes encode_client_hello(const ClientHello& hello) {
  ByteWriter w(kClientHelloBytes);
  w.u32(hello.magic);
  w.u16(hello.version);
  w.u16(hello.flags);
  return std::move(w).take();
}

Bytes encode_server_hello(const ServerHello& hello) {
  ByteWriter w(kServerHelloBytes);
  w.u32(hello.magic);
  w.u16(hello.version);
  w.u16(static_cast<std::uint16_t>(hello.status));
  w.u64(hello.session_id);
  return std::move(w).take();
}

Expected<ClientHello> decode_client_hello(BytesView data) {
  using Out = Expected<ClientHello>;
  ByteReader in(data);
  ClientHello hello;
  hello.magic = in.u32();
  hello.version = in.u16();
  hello.flags = in.u16();
  if (!in.done()) return Out::failure("client hello truncated");
  if (hello.magic != kIngressMagic) return Out::failure("bad ingress magic");
  if (hello.version != kIngressVersion) {
    return Out::failure("unsupported ingress version");
  }
  if (hello.flags != 0) return Out::failure("reserved hello flags set");
  return hello;
}

Expected<ServerHello> decode_server_hello(BytesView data) {
  using Out = Expected<ServerHello>;
  ByteReader in(data);
  ServerHello hello;
  hello.magic = in.u32();
  hello.version = in.u16();
  const std::uint16_t status = in.u16();
  hello.session_id = in.u64();
  if (!in.done()) return Out::failure("server hello truncated");
  if (hello.magic != kIngressMagic) return Out::failure("bad ingress magic");
  if (hello.version != kIngressVersion) {
    return Out::failure("unsupported ingress version");
  }
  if (status > static_cast<std::uint16_t>(HelloStatus::kFull)) {
    return Out::failure("unknown hello status");
  }
  hello.status = static_cast<HelloStatus>(status);
  if (hello.status == HelloStatus::kOk && hello.session_id == 0) {
    return Out::failure("accepted hello carries no session id");
  }
  return hello;
}

Bytes encode_submit_batch(const SubmitBatch& batch) {
  ByteWriter w(16 + batch.txs.size() * 64);
  w.u8(kSubmitBatchTag);
  w.u64(batch.client_id);
  w.u32(static_cast<std::uint32_t>(batch.txs.size()));
  for (const TxSubmit& tx : batch.txs) {
    w.u64(tx.tx_id);
    w.blob(tx.payload);
  }
  return std::move(w).take();
}

Bytes encode_submit_reply(const SubmitReply& reply) {
  ByteWriter w(16 + reply.entries.size() * 9);
  w.u8(kSubmitReplyTag);
  w.u64(reply.client_id);
  w.u32(static_cast<std::uint32_t>(reply.entries.size()));
  for (const ReplyEntry& e : reply.entries) {
    w.u64(e.tx_id);
    w.u8(static_cast<std::uint8_t>(e.status));
  }
  return std::move(w).take();
}

Bytes encode_commit_acks(const CommitAcks& acks) {
  ByteWriter w(8 + acks.acks.size() * 24);
  w.u8(kCommitAcksTag);
  w.u32(static_cast<std::uint32_t>(acks.acks.size()));
  for (const AckEntry& a : acks.acks) {
    w.u64(a.client_id);
    w.u64(a.tx_id);
    w.u64(a.latency_us);
  }
  return std::move(w).take();
}

Expected<IngressMessage> decode_ingress_message(BytesView data) {
  using Out = Expected<IngressMessage>;
  ByteReader in(data);
  IngressMessage msg;
  const std::uint8_t tag = in.u8();
  switch (tag) {
    case kSubmitBatchTag: {
      SubmitBatch batch;
      batch.client_id = in.u64();
      const std::uint32_t count = in.u32();
      if (!in.ok()) return Out::failure("submit batch truncated");
      if (count == 0) return Out::failure("empty submit batch");
      if (count > kMaxBatchTxs) return Out::failure("submit batch too long");
      batch.txs.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        TxSubmit tx;
        tx.tx_id = in.u64();
        tx.payload = in.blob();
        if (!in.ok()) return Out::failure("submit batch truncated");
        if (tx.payload.size() > kMaxTxBytes) {
          return Out::failure("oversized tx payload");
        }
        batch.txs.push_back(std::move(tx));
      }
      msg.batch = std::move(batch);
      break;
    }
    case kSubmitReplyTag: {
      SubmitReply reply;
      reply.client_id = in.u64();
      const std::uint32_t count = in.u32();
      if (!in.ok()) return Out::failure("submit reply truncated");
      if (count > kMaxBatchTxs) return Out::failure("submit reply too long");
      reply.entries.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        ReplyEntry e;
        e.tx_id = in.u64();
        const std::uint8_t status = in.u8();
        if (!in.ok()) return Out::failure("submit reply truncated");
        if (!submit_status_valid(status)) {
          return Out::failure("unknown submit status");
        }
        e.status = static_cast<SubmitStatus>(status);
        reply.entries.push_back(e);
      }
      msg.reply = std::move(reply);
      break;
    }
    case kCommitAcksTag: {
      CommitAcks acks;
      const std::uint32_t count = in.u32();
      if (!in.ok()) return Out::failure("commit acks truncated");
      if (count > kMaxAckEntries) return Out::failure("ack batch too long");
      acks.acks.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        AckEntry a;
        a.client_id = in.u64();
        a.tx_id = in.u64();
        a.latency_us = in.u64();
        if (!in.ok()) return Out::failure("commit acks truncated");
        acks.acks.push_back(a);
      }
      msg.acks = std::move(acks);
      break;
    }
    default:
      return Out::failure("unknown ingress message tag");
  }
  if (!in.done()) return Out::failure("trailing bytes after ingress message");
  return msg;
}

}  // namespace dr::ingress
