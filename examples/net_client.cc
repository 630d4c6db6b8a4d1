// net_client: the moqo wire protocol, one frame at a time.
//
// This example self-hosts a NetServer on an ephemeral loopback port, then
// talks to it the way a remote client in any language would — by writing
// raw bytes. Every frame is hand-assembled below so the file doubles as
// protocol documentation.
//
// ## Wire format
//
// Every frame is an 8-byte little-endian header followed by a payload:
//
//   offset  size  field
//   0       u16   magic 0x514D ("MQ")
//   2       u8    protocol version (1)
//   3       u8    message type
//   4       u32   payload length in bytes
//
// Client -> server types: OPEN_FRONTIER(1), SELECT(2), CANCEL(3),
// CLOSE(4). Server -> client: FRONTIER_UPDATE(16), SELECT_RESULT(17),
// DONE(18), ERROR(19).
//
// Scalar encodings: integers little-endian; doubles as their IEEE-754
// bit pattern (little-endian u64) — costs round-trip bit-exactly.
// Strings: u32 length + bytes. Vectors: u32 count + elements.
//
// ## Session flow
//
//   client: OPEN_FRONTIER {query_id, objectives, ladder knobs}
//   server: FRONTIER_UPDATE*  (one per published refinement step;
//                              alphas strictly decrease; a slow reader
//                              skips superseded intermediates)
//   server: DONE {target_reached, cancelled, shed, ...}
//   client: SELECT {weights, bounds}   (any time, repeatedly)
//   server: SELECT_RESULT {plan_index, weighted_cost, cost vector}
//   client: CLOSE (or just disconnect — the server cancels the session)
//
// One session per connection; queries travel by id (the serving tier owns
// the catalog and resolves ids via NetOptions::resolve_query).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/blocking_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "query/tpch_queries.h"
#include "service/optimization_service.h"

using namespace moqo;

// --- Little-endian byte writers: what any client language needs. --------
// Hand-rolled on purpose (the library has its own in util/byte_codec.h):
// this file documents the protocol for clients written in anything. They
// live in their own namespace so they never collide with the library's.

namespace raw {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU16(std::string* out, uint16_t v) {
  PutU8(out, v & 0xff);
  PutU8(out, v >> 8);
}
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(out, (v >> (8 * i)) & 0xff);
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(out, (v >> (8 * i)) & 0xff);
}
void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}
void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);  // IEEE-754 bit pattern, bit-exact.
  PutU64(out, bits);
}
void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Wraps a payload in the 8-byte header.
std::string Frame(uint8_t type, const std::string& payload) {
  std::string frame;
  PutU16(&frame, 0x514D);  // magic "MQ"
  PutU8(&frame, 1);        // version
  PutU8(&frame, type);
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame += payload;
  return frame;
}

}  // namespace raw

int main() {
  // -- Self-hosted server: catalog, service, net front end. ---------------
  Catalog catalog = Catalog::TpcH(0.01);
  auto q3 = std::make_shared<Query>(MakeTpcHQuery(&catalog, 3));

  ServiceOptions service_options;
  service_options.num_workers = 2;
  OptimizationService service(service_options);

  net::NetOptions net_options;  // host 127.0.0.1, port 0 = ephemeral.
  net_options.resolve_query =
      [&](const std::string& id) -> std::shared_ptr<const Query> {
    return id == "tpch_q3" ? q3 : nullptr;
  };
  net::NetServer server(&service, net_options);
  if (!server.Start()) {
    std::printf("failed to start server\n");
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u\n\n", server.port());

  // -- Client side: connect and hand-roll an OPEN_FRONTIER frame. ---------
  net::BlockingNetClient client;
  if (!client.Connect("127.0.0.1", server.port())) {
    std::printf("connect failed\n");
    return 1;
  }

  // OPEN_FRONTIER payload layout:
  //   string  query_id
  //   u8      num_objectives, then u8 per objective (Objective enum index)
  //   i8      algorithm   (-1 = let the policy choose; 1 = RTA)
  //   f64     alpha       (target guarantee; <= 0 = policy default)
  //   i32     parallelism (0 = policy default)
  //   f64     alpha_start (coarsest ladder rung)
  //   f64     alpha_target(<= 0: derive from alpha)
  //   i32     max_steps   (ladder length cap)
  //   i64     step_deadline_ms (-1 = none)
  //   u8      quick_first (1 = publish a heuristic frontier first)
  std::string open;
  raw::PutString(&open, "tpch_q3");
  raw::PutU8(&open, 3);     // three objectives...
  raw::PutU8(&open, 0);     //   kTotalTime
  raw::PutU8(&open, 6);     //   kBufferFootprint
  raw::PutU8(&open, 8);     //   kTupleLoss
  raw::PutU8(&open, 1);     // algorithm: RTA (i8)
  raw::PutF64(&open, 1.25); // alpha target
  raw::PutI32(&open, 0);    // parallelism: policy
  raw::PutF64(&open, 3.0);  // alpha_start
  raw::PutF64(&open, -1);   // alpha_target: derive from alpha
  raw::PutI32(&open, 3);    // max_steps
  raw::PutU64(&open, static_cast<uint64_t>(int64_t{-1}));  // step deadline
  raw::PutU8(&open, 1);     // quick_first
  // Type 1 = OPEN_FRONTIER.
  if (!client.SendRaw(raw::Frame(1, open))) return 1;

  // -- Server-pushed frontier stream. -------------------------------------
  // The server pushes one FRONTIER_UPDATE per refinement step: the plan
  // costs (row-major [plan][objective] doubles) plus the achieved alpha.
  // BlockingNetClient does the header/payload reassembly we built above
  // in reverse; see src/net/wire.cc for the field-level decoders.
  net::BlockingNetClient::Event event;
  while (client.NextEvent(&event, 30000)) {
    if (event.type == net::MsgType::kFrontierUpdate) {
      const net::FrontierUpdateMsg& update = event.frontier;
      std::printf("frontier step %d: %zu plans, alpha %s (%.1f ms%s)\n",
                  update.step, update.num_plans(),
                  std::isinf(update.alpha)
                      ? "inf (quick mode)"
                      : std::to_string(update.alpha).c_str(),
                  update.step_ms, update.from_cache ? ", cached" : "");
      continue;
    }
    if (event.type == net::MsgType::kDone) {
      std::printf("done: target_reached=%d cancelled=%d shed=%d "
                  "best_alpha=%.3f steps=%d\n\n",
                  event.done.target_reached, event.done.cancelled,
                  event.done.shed, event.done.best_alpha,
                  event.done.steps_published);
      break;
    }
    if (event.type == net::MsgType::kError) {
      // ERROR payload: u8 code + string message. Codes are stable wire
      // contract (see ErrorCode in net/wire.h and the README table);
      // ErrorCodeName maps them to their documented tokens.
      std::printf("server error %u (%s): %s\n", event.error.code,
                  net::ErrorCodeName(
                      static_cast<net::ErrorCode>(event.error.code)),
                  event.error.message.c_str());
      return 1;
    }
  }

  // -- SELECT: scalarize the frontier without re-optimizing. --------------
  // SELECT payload layout:
  //   u64  tag (echoed back, for request/response matching)
  //   u32  num_weights + f64 each (empty = uniform)
  //   u32  num_bounds  + f64 each (empty = unbounded)
  std::string select;
  raw::PutU64(&select, 42);   // tag
  raw::PutU32(&select, 3);    // three weights...
  raw::PutF64(&select, 1.0);  //   total time
  raw::PutF64(&select, 1e-6); //   buffer bytes are a big unit
  raw::PutF64(&select, 1e5);  //   tuple loss is precious
  raw::PutU32(&select, 0);    // no bounds
  if (!client.SendRaw(raw::Frame(2, select))) return 1;  // type 2 = SELECT

  if (!client.NextEvent(&event, 30000) ||
      event.type != net::MsgType::kSelectResult) {
    std::printf("no SELECT_RESULT\n");
    return 1;
  }
  std::printf("selected plan %d from step %d (alpha %.3f), weighted cost "
              "%.3f\n",
              event.select_result.plan_index, event.select_result.step,
              event.select_result.alpha,
              event.select_result.weighted_cost);
  for (size_t i = 0; i < event.select_result.cost.size(); ++i) {
    std::printf("  objective %zu cost: %.3f\n", i,
                event.select_result.cost[i]);
  }

  // CLOSE (type 4, empty payload); disconnecting would also do.
  client.SendRaw(raw::Frame(4, ""));
  client.Disconnect();
  server.Stop();
  std::printf("\nok\n");
  return 0;
}
