// Copyright (c) 2026 moqo authors. MIT license.

#include "persist/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

#include "rt/failpoint.h"

namespace moqo {
namespace persist {

namespace {

constexpr size_t kFileHeaderBytes = 48;

void AppendFileHeader(std::string* out, uint64_t catalog_epoch,
                      uint64_t cost_model_version, uint32_t record_count) {
  PutU64(out, kSnapshotMagic);
  PutU32(out, kFormatVersion);
  PutU32(out, record_count);
  PutU64(out, catalog_epoch);
  PutU64(out, cost_model_version);
  PutU64(out, 0);  // reserved
  PutU64(out, Fnv1a(out->data(), out->size(), kChecksumSeed));
}

}  // namespace

void SnapshotWriter::AddRecord(RecordKind kind, std::string_view key,
                               uint64_t key_hash, double achieved_alpha,
                               std::string_view payload) {
  AppendRecord(&body_, kind, key, key_hash, achieved_alpha, payload);
  ++record_count_;
}

size_t SnapshotWriter::encoded_bytes() const {
  return kFileHeaderBytes + body_.size();
}

bool SnapshotWriter::WriteFile(const std::string& path) {
  MOQO_FAILPOINT_RETURN("persist.write", false);
  std::string file;
  file.reserve(kFileHeaderBytes + body_.size());
  AppendFileHeader(&file, catalog_epoch_, cost_model_version_, record_count_);
  file += body_;

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  size_t written = 0;
  while (written < file.size()) {
    const ssize_t n = ::write(fd, file.data() + written, file.size() - written);
    if (n <= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    written += static_cast<size_t>(n);
  }
  // fsync before rename: the rename must never publish a file whose data
  // is still only in the page cache when the machine dies.
  if (::fsync(fd) != 0 || ::close(fd) != 0 ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

SnapshotReadResult ReadSnapshot(
    const std::string& path, const SnapshotHeader* expected,
    const std::function<void(const SnapshotRecordView&)>& record_cb) {
  SnapshotReadResult result;
  if (MOQO_FAILPOINT_HIT("persist.read")) return result;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return result;
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0 ||
      static_cast<size_t>(st.st_size) < kFileHeaderBytes) {
    ::close(fd);
    return result;
  }
  const size_t size = static_cast<size_t>(st.st_size);

  // One read(2) into heap memory, not a mapping: a file that another
  // process shortens under a mapping raises SIGBUS instead of the clean
  // skip the validation matrix promises. Restore runs once at start-up and
  // decodes every record into arenas either way, so a mapping would save
  // only one file-sized copy.
  std::string bytes(size, '\0');
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, bytes.data() + done, size - done);
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  if (done != size) return result;
  const void* data = bytes.data();

  do {
    ByteReader reader(data, size);
    SnapshotHeader header;
    uint64_t stored_checksum = 0;
    reader.GetU64(&header.magic);
    reader.GetU32(&header.format_version);
    reader.GetU32(&header.record_count);
    reader.GetU64(&header.catalog_epoch);
    reader.GetU64(&header.cost_model_version);
    reader.Skip(8);  // reserved
    reader.GetU64(&stored_checksum);
    if (header.magic != kSnapshotMagic ||
        Fnv1a(data, kFileHeaderBytes - 8, kChecksumSeed) != stored_checksum) {
      break;
    }
    result.loaded = true;
    result.header = header;
    // A different format version means a different record layout: the
    // header is trustworthy (magic + checksum), the records are not. A
    // stale cost model makes every stored cost wrong, and another catalog
    // epoch makes every content-derived key unreachable: either way the
    // records are dead weight that would only pollute the caches.
    if (header.format_version != kFormatVersion ||
        (expected != nullptr &&
         header.cost_model_version != expected->cost_model_version)) {
      result.skipped_version = header.record_count;
      break;
    }
    if (expected != nullptr &&
        header.catalog_epoch != expected->catalog_epoch) {
      result.skipped_epoch = header.record_count;
      break;
    }
    if (!record_cb) break;

    for (uint32_t i = 0; i < header.record_count; ++i) {
      RecordView view;
      const ReadRecordStatus status = ReadRecord(&reader, &view);
      if (status == ReadRecordStatus::kTruncated) {
        result.truncated += header.record_count - i;
        break;
      }
      if (status == ReadRecordStatus::kCorrupt) {
        // The lengths that position the next record came from this corrupt
        // header; trusting them would misparse the whole tail. Drop it.
        result.skipped_checksum += 1;
        result.truncated += header.record_count - i - 1;
        break;
      }
      record_cb(view);
      result.records_ok += 1;
    }
  } while (false);
  return result;
}

}  // namespace persist
}  // namespace moqo
