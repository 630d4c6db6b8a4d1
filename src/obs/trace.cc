// Copyright (c) 2026 moqo authors. MIT license.

#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

namespace moqo {
namespace {

/// Process-unique tracer ids; id 0 is never issued so a zero-initialized
/// thread cache never matches.
std::atomic<uint64_t> g_next_tracer_id{1};

/// Per-thread cache of the buffer registered with the most recent tracer
/// this thread touched. Holding a shared_ptr keeps the buffer alive even
/// if the tracer dies first; the id check keeps a stale cache from ever
/// matching a different tracer that reused the same address.
struct ThreadCache {
  uint64_t tracer_id = 0;
  std::shared_ptr<void> buffer;
};
thread_local ThreadCache t_cache;

void AppendJsonEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

Tracer::Tracer(TraceOptions options)
    : options_(options),
      tracer_id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.ring_capacity < 16) options_.ring_capacity = 16;
  if (options_.sample_period < 1) options_.sample_period = 1;
  enabled_.store(options_.enabled, std::memory_order_relaxed);
}

Tracer::~Tracer() = default;

int64_t Tracer::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  if (t_cache.tracer_id == tracer_id_) {
    return static_cast<ThreadBuffer*>(t_cache.buffer.get());
  }
  const std::thread::id self = std::this_thread::get_id();
  std::shared_ptr<ThreadBuffer> buffer;
  {
    MutexLock registry_lock(buffers_mu_);
    // A thread that recorded here before, then through another tracer,
    // takes its own buffer back. (A new thread that inherits a dead one's
    // id continues that thread's track; the two never overlap.)
    for (const std::shared_ptr<ThreadBuffer>& registered : buffers_) {
      if (registered->owner == self) {
        buffer = registered;
        break;
      }
    }
  }
  if (buffer == nullptr) {
    buffer = std::make_shared<ThreadBuffer>();
    buffer->owner = self;
    {
      // The buffer is still private to this thread; locking is for the
      // thread-safety analysis, not for exclusion.
      MutexLock lock(buffer->mu);
      buffer->ring.resize(options_.ring_capacity);
    }
    // buffers_mu_ -> buffer->mu is the one nested order here; every other
    // path (Record, the exporters) takes the two locks disjointly.
    MutexLock registry_lock(buffers_mu_);
    MutexLock buffer_lock(buffer->mu);
    buffer->tid = static_cast<int>(buffers_.size()) + 1;
    buffers_.push_back(buffer);
  }
  t_cache.tracer_id = tracer_id_;
  t_cache.buffer = buffer;
  return buffer.get();
}

void Tracer::Record(const TraceEvent& event) {
  ThreadBuffer* buffer = BufferForThisThread();
  MutexLock lock(buffer->mu);
  if (options_.sample_period > 1 &&
      (buffer->sampled++ % static_cast<uint64_t>(options_.sample_period)) !=
          0) {
    return;
  }
  buffer->ring[buffer->next] = event;
  buffer->next = (buffer->next + 1) % buffer->ring.size();
  buffer->recorded++;
}

std::string Tracer::ExportChromeTrace() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(buffers_mu_);
    buffers = buffers_;
  }

  std::string out;
  out.reserve(1 << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char line[256];
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mu);
    // Thread-name metadata so Perfetto labels each track.
    std::snprintf(line, sizeof(line),
                  "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"moqo-%d\"}}",
                  first ? "" : ",", buffer->tid, buffer->tid);
    first = false;
    out += line;

    const size_t capacity = buffer->ring.size();
    const uint64_t kept = std::min<uint64_t>(buffer->recorded, capacity);
    // Oldest retained event first. With no wrap the ring is [0, next);
    // after a wrap the oldest slot is `next` itself.
    size_t cursor = buffer->recorded > capacity ? buffer->next : 0;
    for (uint64_t i = 0; i < kept; ++i, cursor = (cursor + 1) % capacity) {
      const TraceEvent& e = buffer->ring[cursor];
      std::snprintf(line, sizeof(line),
                    ",{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%lld,"
                    "\"dur\":%lld,\"cat\":\"",
                    buffer->tid, static_cast<long long>(e.start_us),
                    static_cast<long long>(e.dur_us));
      out += line;
      AppendJsonEscaped(&out, e.category != nullptr ? e.category : "moqo");
      out += "\",\"name\":\"";
      AppendJsonEscaped(&out, e.name != nullptr ? e.name : "span");
      out += "\",\"args\":{";
      bool first_arg = true;
      if (e.id != 0) {
        std::snprintf(line, sizeof(line), "\"id\":%llu",
                      static_cast<unsigned long long>(e.id));
        out += line;
        first_arg = false;
      }
      if (e.arg1_name != nullptr) {
        out += first_arg ? "\"" : ",\"";
        AppendJsonEscaped(&out, e.arg1_name);
        std::snprintf(line, sizeof(line), "\":%lld",
                      static_cast<long long>(e.arg1));
        out += line;
        first_arg = false;
      }
      if (e.arg2_name != nullptr) {
        out += first_arg ? "\"" : ",\"";
        AppendJsonEscaped(&out, e.arg2_name);
        std::snprintf(line, sizeof(line), "\":%lld",
                      static_cast<long long>(e.arg2));
        out += line;
      }
      out += "}}";
    }
  }
  out += "]}";
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) return false;
  file << ExportChromeTrace();
  return static_cast<bool>(file);
}

uint64_t Tracer::recorded_events() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(buffers_mu_);
    buffers = buffers_;
  }
  uint64_t total = 0;
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mu);
    total += buffer->recorded;
  }
  return total;
}

uint64_t Tracer::dropped_events() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(buffers_mu_);
    buffers = buffers_;
  }
  uint64_t dropped = 0;
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mu);
    if (buffer->recorded > buffer->ring.size()) {
      dropped += buffer->recorded - buffer->ring.size();
    }
  }
  return dropped;
}

}  // namespace moqo
