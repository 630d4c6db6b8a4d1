// Copyright (c) 2026 moqo authors. MIT license.

#include "net/wire.h"

#include <string_view>

#include "core/plan_set.h"
#include "util/byte_codec.h"

namespace moqo {
namespace net {
namespace {

// ---- Wire composites over the shared codec: u32-length-prefixed strings
// and double vectors. ----

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutF64Vector(std::string* out, const std::vector<double>& values) {
  PutU32(out, static_cast<uint32_t>(values.size()));
  for (double v : values) PutDouble(out, v);
}

/// Prepends the 8-byte header once the payload is complete.
std::string Frame(MsgType type, const std::string& payload) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  PutU16(&frame, kMagic);
  PutU8(&frame, kProtocolVersion);
  PutU8(&frame, static_cast<uint8_t>(type));
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  return frame;
}

bool GetString(ByteReader* r, std::string* s) {
  uint32_t len = 0;
  std::string_view bytes;
  if (!r->GetU32(&len) || !r->GetView(len, &bytes)) return false;
  s->assign(bytes);
  return true;
}

/// `count` doubles into `out`. A count cannot promise more doubles than
/// bytes remain — rejecting up front keeps a hostile length from
/// reserving gigabytes.
bool GetDoubles(ByteReader* r, uint64_t count, std::vector<double>* out) {
  if (r->remaining() / 8 < count) return false;
  out->resize(count);
  for (double& v : *out) {
    if (!r->GetDouble(&v)) return false;
  }
  return true;
}

bool GetF64Vector(ByteReader* r, std::vector<double>* out) {
  uint32_t count = 0;
  return r->GetU32(&count) && GetDoubles(r, count, out);
}

}  // namespace

std::string EncodeOpenFrontier(const OpenFrontierMsg& msg) {
  std::string payload;
  PutString(&payload, msg.query_id);
  PutU8(&payload, static_cast<uint8_t>(msg.objectives.size()));
  for (uint8_t objective : msg.objectives) PutU8(&payload, objective);
  PutU8(&payload, static_cast<uint8_t>(msg.algorithm));
  PutDouble(&payload, msg.alpha);
  PutI32(&payload, msg.parallelism);
  PutDouble(&payload, msg.alpha_start);
  PutDouble(&payload, msg.alpha_target);
  PutI32(&payload, msg.max_steps);
  PutI64(&payload, msg.step_deadline_ms);
  PutU8(&payload, msg.quick_first);
  return Frame(MsgType::kOpenFrontier, payload);
}

std::string EncodeSelect(const SelectMsg& msg) {
  std::string payload;
  PutU64(&payload, msg.tag);
  PutF64Vector(&payload, msg.weights);
  PutF64Vector(&payload, msg.bounds);
  return Frame(MsgType::kSelect, payload);
}

std::string EncodeCancel() { return Frame(MsgType::kCancel, std::string()); }

std::string EncodeClose() { return Frame(MsgType::kClose, std::string()); }

std::string EncodeFrontierUpdate(const FrontierUpdateMsg& msg) {
  std::string payload;
  PutI32(&payload, msg.step);
  PutDouble(&payload, msg.alpha);
  PutU8(&payload, msg.from_cache);
  PutDouble(&payload, msg.step_ms);
  PutU32(&payload, msg.num_plans());
  PutU8(&payload, static_cast<uint8_t>(msg.dims));
  for (double cost : msg.costs) PutDouble(&payload, cost);
  return Frame(MsgType::kFrontierUpdate, payload);
}

std::string EncodeSelectResult(const SelectResultMsg& msg) {
  std::string payload;
  PutU64(&payload, msg.tag);
  PutI32(&payload, msg.step);
  PutDouble(&payload, msg.alpha);
  PutI32(&payload, msg.plan_index);
  PutDouble(&payload, msg.weighted_cost);
  PutF64Vector(&payload, msg.cost);
  return Frame(MsgType::kSelectResult, payload);
}

std::string EncodeDone(const DoneMsg& msg) {
  std::string payload;
  PutU8(&payload, msg.target_reached);
  PutU8(&payload, msg.cancelled);
  PutU8(&payload, msg.degraded);
  PutU8(&payload, msg.shed);
  PutU8(&payload, msg.rejected);
  PutI32(&payload, msg.steps_published);
  PutDouble(&payload, msg.best_alpha);
  return Frame(MsgType::kDone, payload);
}

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kProtocol:
      return "protocol";
    case ErrorCode::kUnknownQuery:
      return "unknown_query";
    case ErrorCode::kRejected:
      return "rejected";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kTimeout:
      return "timeout";
  }
  return "unknown";
}

std::string EncodeError(ErrorCode code, const std::string& message) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(code));
  PutString(&payload, message);
  return Frame(MsgType::kError, payload);
}

FrontierUpdateMsg MakeFrontierUpdate(int step, double alpha, bool from_cache,
                                     double step_ms,
                                     const PlanSet& plan_set) {
  FrontierUpdateMsg msg;
  msg.step = step;
  msg.alpha = alpha;
  msg.from_cache = from_cache ? 1 : 0;
  msg.step_ms = step_ms;
  msg.dims = plan_set.empty()
                 ? 0
                 : static_cast<uint32_t>(plan_set.cost(0).size());
  msg.costs.reserve(static_cast<size_t>(plan_set.size()) * msg.dims);
  for (int i = 0; i < plan_set.size(); ++i) {
    const CostVector& cost = plan_set.cost(i);
    for (uint32_t d = 0; d < msg.dims; ++d) msg.costs.push_back(cost[d]);
  }
  return msg;
}

bool DecodeOpenFrontier(const uint8_t* data, size_t size,
                        OpenFrontierMsg* out) {
  ByteReader r(data, size);
  uint8_t num_objectives = 0;
  std::string_view objectives;
  if (!GetString(&r, &out->query_id) || !r.GetU8(&num_objectives) ||
      !r.GetView(num_objectives, &objectives) ||
      !r.GetI8(&out->algorithm) || !r.GetDouble(&out->alpha) ||
      !r.GetI32(&out->parallelism) || !r.GetDouble(&out->alpha_start) ||
      !r.GetDouble(&out->alpha_target) || !r.GetI32(&out->max_steps) ||
      !r.GetI64(&out->step_deadline_ms) || !r.GetU8(&out->quick_first)) {
    return false;
  }
  out->objectives.assign(objectives.begin(), objectives.end());
  return r.exhausted();
}

bool DecodeSelect(const uint8_t* data, size_t size, SelectMsg* out) {
  ByteReader r(data, size);
  if (!r.GetU64(&out->tag) || !GetF64Vector(&r, &out->weights) ||
      !GetF64Vector(&r, &out->bounds)) {
    return false;
  }
  return r.exhausted();
}

bool DecodeFrontierUpdate(const uint8_t* data, size_t size,
                          FrontierUpdateMsg* out) {
  ByteReader r(data, size);
  uint32_t num_plans = 0;
  uint8_t dims = 0;
  if (!r.GetI32(&out->step) || !r.GetDouble(&out->alpha) ||
      !r.GetU8(&out->from_cache) || !r.GetDouble(&out->step_ms) ||
      !r.GetU32(&num_plans) || !r.GetU8(&dims) ||
      !GetDoubles(&r, static_cast<uint64_t>(num_plans) * dims, &out->costs)) {
    return false;
  }
  out->dims = dims;
  return r.exhausted();
}

bool DecodeSelectResult(const uint8_t* data, size_t size,
                        SelectResultMsg* out) {
  ByteReader r(data, size);
  if (!r.GetU64(&out->tag) || !r.GetI32(&out->step) ||
      !r.GetDouble(&out->alpha) || !r.GetI32(&out->plan_index) ||
      !r.GetDouble(&out->weighted_cost) || !GetF64Vector(&r, &out->cost)) {
    return false;
  }
  return r.exhausted();
}

bool DecodeDone(const uint8_t* data, size_t size, DoneMsg* out) {
  ByteReader r(data, size);
  if (!r.GetU8(&out->target_reached) || !r.GetU8(&out->cancelled) ||
      !r.GetU8(&out->degraded) || !r.GetU8(&out->shed) ||
      !r.GetU8(&out->rejected) || !r.GetI32(&out->steps_published) ||
      !r.GetDouble(&out->best_alpha)) {
    return false;
  }
  return r.exhausted();
}

bool DecodeError(const uint8_t* data, size_t size, ErrorMsg* out) {
  ByteReader r(data, size);
  if (!r.GetU8(&out->code) || !GetString(&r, &out->message)) return false;
  return r.exhausted();
}

FrameDecoder::Status FrameDecoder::Next(MsgType* type,
                                        std::vector<uint8_t>* payload) {
  if (broken_ != Status::kFrame) return broken_;
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its read buffer unboundedly.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  ByteReader r(buffer_.data() + consumed_, buffer_.size() - consumed_);
  uint16_t magic = 0;
  uint8_t version = 0, raw_type = 0;
  uint32_t payload_len = 0;
  if (!r.GetU16(&magic) || !r.GetU8(&version) || !r.GetU8(&raw_type) ||
      !r.GetU32(&payload_len)) {
    return Status::kNeedMore;
  }
  if (magic != kMagic || version != kProtocolVersion) {
    broken_ = Status::kBadHeader;
    return broken_;
  }
  if (payload_len > max_frame_bytes_) {
    broken_ = Status::kOversized;
    return broken_;
  }
  std::string_view body;
  if (!r.GetView(payload_len, &body)) return Status::kNeedMore;
  *type = static_cast<MsgType>(raw_type);
  payload->assign(body.begin(), body.end());
  consumed_ += kHeaderBytes + payload_len;
  return Status::kFrame;
}

}  // namespace net
}  // namespace moqo
