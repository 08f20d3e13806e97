#include "src/durability/journal.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "src/common/logging.h"
#include "src/substrate/checksum.h"

namespace mercurial {

namespace {

constexpr uint32_t kJournalMagic = 0x4c4a434d;  // "MCJL"
// Version 2 dropped the control plane's retirement-time map from its durable bytes; an image of
// another version is refused rather than decoded against this layout.
constexpr uint32_t kJournalVersion = 2;
// u32 payload_len + u8 type + u64 tick before the payload, u32 crc after it.
constexpr size_t kFramePrefixBytes = 4 + 1 + 8;
constexpr size_t kFrameOverheadBytes = kFramePrefixBytes + 4;

bool ValidFrameType(uint8_t type) {
  return type == static_cast<uint8_t>(JournalFrameType::kHeader) ||
         type == static_cast<uint8_t>(JournalFrameType::kManifest) ||
         type == static_cast<uint8_t>(JournalFrameType::kSnapshot) ||
         type == static_cast<uint8_t>(JournalFrameType::kTickDelta);
}

// The longest valid frame prefix of a journal image, and why the scan stopped there.
struct FrameScan {
  std::vector<JournalFrame> frames;
  bool torn_tail = false;      // ended by a clipped frame
  bool corrupt_frame = false;  // ended by a CRC/type-invalid frame
  size_t snapshot = 0;         // index of the latest snapshot frame
};

// Scans the longest valid frame prefix; mutates nothing. Without `checked` the scan starts at
// offset 0 and fails with DATA_LOSS when the prefix does not open with a header frame of this
// magic and version, or holds no snapshot frame: such an image proves no durable state at all.
// `checked` is a snapshot frame whose bytes, and every byte before it, an earlier scan of the
// same unchanged prefix validated: the scan takes it as its first frame and checks only what
// follows it.
StatusOr<FrameScan> ScanFrames(std::span<const uint8_t> image,
                               const std::optional<JournalFrame>& checked = std::nullopt) {
  FrameScan scan;
  size_t offset = 0;
  if (checked.has_value()) {
    MERCURIAL_CHECK(checked->type == JournalFrameType::kSnapshot);
    MERCURIAL_CHECK_LE(checked->frame_end, image.size());
    scan.frames.push_back(*checked);
    offset = checked->frame_end;
  }
  while (offset < image.size()) {
    if (image.size() - offset < kFrameOverheadBytes) {
      scan.torn_tail = true;
      break;
    }
    ByteReader prefix(image.data() + offset, kFramePrefixBytes);
    uint32_t payload_len = 0;
    uint8_t type = 0;
    uint64_t tick = 0;
    MERCURIAL_CHECK(prefix.GetU32(&payload_len).ok());
    MERCURIAL_CHECK(prefix.GetU8(&type).ok());
    MERCURIAL_CHECK(prefix.GetU64(&tick).ok());
    if (image.size() - offset - kFrameOverheadBytes < payload_len) {
      // A clipped body and a bit flip in the length word are indistinguishable here; both end
      // the durable prefix, classified as a torn tail.
      scan.torn_tail = true;
      break;
    }
    const size_t crc_offset = offset + kFramePrefixBytes + payload_len;
    ByteReader crc_reader(image.data() + crc_offset, 4);
    uint32_t stored_crc = 0;
    MERCURIAL_CHECK(crc_reader.GetU32(&stored_crc).ok());
    if (stored_crc != Crc32(image.data() + offset, kFramePrefixBytes + payload_len) ||
        !ValidFrameType(type)) {
      scan.corrupt_frame = true;
      break;
    }
    scan.frames.push_back(JournalFrame{static_cast<JournalFrameType>(type), tick,
                                       offset + kFramePrefixBytes, payload_len, crc_offset + 4});
    offset = scan.frames.back().frame_end;
  }

  if (!checked.has_value()) {
    if (scan.frames.empty() || scan.frames.front().type != JournalFrameType::kHeader) {
      return DataLossError("journal has no valid header frame");
    }
    ByteReader header = scan.frames.front().Payload(image);
    uint32_t magic = 0;
    uint32_t version = 0;
    if (Status s = header.GetU32(&magic); !s.ok()) return s;
    if (Status s = header.GetU32(&version); !s.ok()) return s;
    if (magic != kJournalMagic || version != kJournalVersion) {
      return DataLossError("journal header magic/version mismatch");
    }
  }
  // Latest valid snapshot in the prefix wins.
  for (scan.snapshot = scan.frames.size(); scan.snapshot-- > 0;) {
    if (scan.frames[scan.snapshot].type == JournalFrameType::kSnapshot) {
      return scan;
    }
  }
  return DataLossError("journal has no valid snapshot frame");
}

}  // namespace

StatusOr<JournalImageInfo> InspectJournalImage(const std::vector<uint8_t>& image) {
  StatusOr<FrameScan> scan = ScanFrames(image);
  if (!scan.ok()) {
    return scan.status();
  }
  JournalImageInfo info;
  for (const JournalFrame& frame : scan->frames) {
    if (frame.type == JournalFrameType::kSnapshot) {
      ++info.snapshots;
      info.snapshot_tick = frame.tick;
    } else if (frame.type == JournalFrameType::kTickDelta) {
      ++info.tick_frames;
    } else if (frame.type == JournalFrameType::kManifest) {
      info.manifest.assign(image.begin() + frame.payload_begin,
                           image.begin() + frame.payload_begin + frame.payload_len);
    }
  }
  info.frames = scan->frames.size();
  info.durable_tick = scan->frames.back().tick;
  info.durable_prefix_bytes = scan->frames.back().frame_end;
  info.torn_tail = scan->torn_tail;
  info.corrupt_frame = scan->corrupt_frame;
  return info;
}

DurabilityManager::DurabilityManager(Options options) : options_(std::move(options)) {}

void DurabilityManager::RegisterUnit(std::string name, SaveFn save, LoadFn load) {
  MERCURIAL_CHECK(!started_) << "units must be registered before Start()";
  Unit unit;
  unit.name = std::move(name);
  unit.save = std::move(save);
  unit.load = std::move(load);
  units_.push_back(std::move(unit));
}

void DurabilityManager::RegisterDeltaUnit(std::string name, SaveFn save, LoadFn load,
                                          HasOpsFn has_ops, SaveFn drain, LoadFn apply) {
  MERCURIAL_CHECK(!started_) << "units must be registered before Start()";
  Unit unit;
  unit.name = std::move(name);
  unit.save = std::move(save);
  unit.load = std::move(load);
  unit.is_delta = true;
  unit.has_ops = std::move(has_ops);
  unit.drain = std::move(drain);
  unit.apply = std::move(apply);
  units_.push_back(std::move(unit));
}

DurabilityManager::Image::~Image() {
  if (data_ == nullptr) {
    return;
  }
#if defined(__linux__)
  munmap(data_, capacity_);
#else
  std::free(data_);
#endif
}

void DurabilityManager::Image::Append(std::span<const uint8_t> bytes) {
  if (bytes.size() > capacity_ - size_) {
    constexpr size_t kMinCapacity = size_t{1} << 16;
    const size_t capacity = std::max({size_ + bytes.size(), 2 * capacity_, kMinCapacity});
#if defined(__linux__)
    void* grown = data_ == nullptr ? mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                                   : mremap(data_, capacity_, capacity, MREMAP_MAYMOVE);
    MERCURIAL_CHECK(grown != MAP_FAILED) << "cannot map a journal image of " << capacity
                                         << " bytes";
#else
    void* grown = std::realloc(data_, capacity);
    MERCURIAL_CHECK(grown != nullptr) << "cannot allocate a journal image of " << capacity
                                      << " bytes";
#endif
    data_ = static_cast<uint8_t*>(grown);
    capacity_ = capacity;
  }
  if (!bytes.empty()) {  // memcpy from a null pointer is undefined even for zero bytes
    std::memcpy(data_ + size_, bytes.data(), bytes.size());
  }
  size_ += bytes.size();
}

void DurabilityManager::Image::Truncate(size_t size) {
  MERCURIAL_CHECK_LE(size, size_);
  size_ = size;
}

void DurabilityManager::BeginFrame(JournalFrameType type, uint64_t tick) {
  frame_.clear();
  ByteWriter w(frame_);
  w.PutU32(0);  // payload length, patched by EndFrame
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU64(tick);
}

void DurabilityManager::EndFrame() {
  const auto payload_len = static_cast<uint32_t>(frame_.size() - kFramePrefixBytes);
  std::memcpy(frame_.data(), &payload_len, sizeof(payload_len));
  ByteWriter(frame_).PutU32(Crc32(frame_.data(), frame_.size()));
  image_.Append(frame_);
  ++stats_.frames_written;
  stats_.bytes_written += frame_.size();
  const auto type = static_cast<JournalFrameType>(frame_[4]);
  if (type == JournalFrameType::kSnapshot) {
    ++stats_.snapshots_written;
    last_snapshot_end_ = image_.size();
    tick_frames_at_last_snapshot_ = stats_.tick_frames_written;
  } else if (type == JournalFrameType::kTickDelta) {
    ++stats_.tick_frames_written;
  }
  SyncFile();
}

void DurabilityManager::AppendFrame(JournalFrameType type, uint64_t tick,
                                    const std::vector<uint8_t>& payload) {
  BeginFrame(type, tick);
  frame_.insert(frame_.end(), payload.begin(), payload.end());
  EndFrame();
}

void DurabilityManager::WriteSnapshot(uint64_t tick) {
  BeginFrame(JournalFrameType::kSnapshot, tick);
  ByteWriter w(frame_);
  // Cumulative tick frames before this snapshot: recovery uses it to close the conservation
  // invariant frames_replayed + frames_truncated == tick frames written since the snapshot.
  w.PutU64(stats_.tick_frames_written);
  w.PutU32(static_cast<uint32_t>(units_.size()));
  for (Unit& unit : units_) {
    const size_t length_at = frame_.size();
    w.PutU32(0);  // the unit's length, patched once it is written
    unit.save(w);
    const size_t begin = length_at + sizeof(uint32_t);
    const auto length = static_cast<uint32_t>(frame_.size() - begin);
    std::memcpy(frame_.data() + length_at, &length, sizeof(length));
    if (unit.is_delta) {
      // The snapshot captures post-tick state; this tick's ops are subsumed by it, so they
      // are drained and discarded — a replay from this snapshot must not re-apply them.
      std::vector<uint8_t> discard;
      ByteWriter discard_writer(discard);
      unit.drain(discard_writer);
    } else {
      unit.last_bytes.assign(frame_.begin() + static_cast<ptrdiff_t>(begin), frame_.end());
    }
  }
  EndFrame();
}

void DurabilityManager::WriteTickDelta(uint64_t tick) {
  BeginFrame(JournalFrameType::kTickDelta, tick);
  ByteWriter w(frame_);
  // Full units whose serialized state changed since their last journaled bytes. Comparing
  // serializations (not trusting mutation paths to self-report) means a forgotten dirty bit
  // is impossible by construction.
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> dirty;
  for (uint32_t i = 0; i < units_.size(); ++i) {
    Unit& unit = units_[i];
    if (unit.is_delta) {
      continue;
    }
    std::vector<uint8_t> bytes;
    // The previous serialization is an exact size prediction unless the unit grew this tick,
    // so reserving it turns the per-tick dirty probe into a single allocation.
    bytes.reserve(unit.last_bytes.size() + 64);
    ByteWriter unit_writer(bytes);
    unit.save(unit_writer);
    if (bytes != unit.last_bytes) {
      dirty.emplace_back(i, std::move(bytes));
    }
  }
  w.PutU32(static_cast<uint32_t>(dirty.size()));
  for (auto& [index, bytes] : dirty) {
    w.PutU32(index);
    w.PutU32(static_cast<uint32_t>(bytes.size()));
    frame_.insert(frame_.end(), bytes.begin(), bytes.end());
    units_[index].last_bytes = std::move(bytes);
  }
  uint32_t delta_count = 0;
  for (Unit& unit : units_) {
    if (unit.is_delta && unit.has_ops()) {
      ++delta_count;
    }
  }
  w.PutU32(delta_count);
  for (uint32_t i = 0; i < units_.size(); ++i) {
    Unit& unit = units_[i];
    if (!unit.is_delta || !unit.has_ops()) {
      continue;
    }
    std::vector<uint8_t> ops;
    ByteWriter ops_writer(ops);
    unit.drain(ops_writer);
    w.PutU32(i);
    w.PutU32(static_cast<uint32_t>(ops.size()));
    frame_.insert(frame_.end(), ops.begin(), ops.end());
  }
  EndFrame();
}

Status DurabilityManager::Start(uint64_t tick, const std::vector<uint8_t>& manifest) {
  MERCURIAL_CHECK(!started_) << "DurabilityManager::Start called twice";
  MERCURIAL_CHECK(!units_.empty()) << "no durable units registered";
  started_ = true;
  std::vector<uint8_t> header;
  ByteWriter w(header);
  w.PutU32(kJournalMagic);
  w.PutU32(kJournalVersion);
  AppendFrame(JournalFrameType::kHeader, tick, header);
  AppendFrame(JournalFrameType::kManifest, tick, manifest);
  WriteSnapshot(tick);
  return Status::Ok();
}

void DurabilityManager::EndTick(uint64_t tick) {
  MERCURIAL_CHECK(started_) << "EndTick before Start";
  const auto start = std::chrono::steady_clock::now();
  if (options_.snapshot_every > 0 &&
      stats_.tick_frames_written - tick_frames_at_last_snapshot_ + 1 >= options_.snapshot_every) {
    // Count the tick frame the snapshot replaces, so cadence counts ticks, not frame types.
    ++stats_.tick_frames_written;
    WriteSnapshot(tick);
  } else {
    WriteTickDelta(tick);
  }
  stats_.end_tick_nanos += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
}

uint64_t DurabilityManager::tick_frames_since_snapshot() const {
  return stats_.tick_frames_written - tick_frames_at_last_snapshot_;
}

Status DurabilityManager::ApplySnapshot(ByteReader r, uint64_t* tick_frames_before) {
  uint32_t unit_count = 0;
  if (Status s = r.GetU64(tick_frames_before); !s.ok()) {
    return s;
  }
  if (Status s = r.GetU32(&unit_count); !s.ok()) {
    return s;
  }
  if (unit_count != units_.size()) {
    return DataLossError("snapshot unit count does not match the registered units");
  }
  for (Unit& unit : units_) {
    uint32_t len = 0;
    if (Status s = r.GetU32(&len); !s.ok()) {
      return s;
    }
    ByteReader unit_reader;
    if (!r.Take(len, &unit_reader).ok()) {
      return DataLossError("snapshot unit payload exceeds the frame");
    }
    if (Status s = unit.load(unit_reader); !s.ok()) {
      return s;
    }
    if (Status s = unit_reader.ExpectEnd(); !s.ok()) {
      return s;
    }
  }
  return r.ExpectEnd();
}

Status DurabilityManager::ApplyTickDelta(ByteReader r) {
  // Two sections, each [u32 count]([u32 unit index][u32 len][payload])*: full-unit payloads
  // (load), then delta-unit op logs (apply).
  for (const bool delta : {false, true}) {
    uint32_t count = 0;
    if (Status s = r.GetU32(&count); !s.ok()) {
      return s;
    }
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t index = 0;
      uint32_t len = 0;
      if (Status s = r.GetU32(&index); !s.ok()) return s;
      if (Status s = r.GetU32(&len); !s.ok()) return s;
      if (index >= units_.size() || units_[index].is_delta != delta) {
        return DataLossError(delta ? "tick frame names an invalid delta unit"
                                   : "tick frame names an invalid full unit");
      }
      ByteReader part;
      if (!r.Take(len, &part).ok()) {
        return DataLossError(delta ? "tick frame ops payload exceeds the frame"
                                   : "tick frame unit payload exceeds the frame");
      }
      const Unit& unit = units_[index];
      if (Status s = delta ? unit.apply(part) : unit.load(part); !s.ok()) {
        return s;
      }
      if (Status s = part.ExpectEnd(); !s.ok()) {
        return s;
      }
    }
  }
  return r.ExpectEnd();
}

void DurabilityManager::RebuildCaches() {
  for (Unit& unit : units_) {
    if (unit.is_delta) {
      continue;
    }
    std::vector<uint8_t> bytes;
    ByteWriter w(bytes);
    unit.save(w);
    unit.last_bytes = std::move(bytes);
  }
}

StatusOr<DurabilityManager::RecoveryResult> DurabilityManager::Recover() {
  // Classification of why the scan stopped (clean end, torn tail, corrupt frame) feeds the
  // loss accounting. After this manager's first recovery the scan resumes at the end of the
  // snapshot the last one restored (see checked_snapshot_); it stops where a full scan would.
  StatusOr<FrameScan> scan = ScanFrames(image_.bytes(), checked_snapshot_);
  if (!scan.ok()) {
    return scan.status();
  }
  const std::vector<JournalFrame>& frames = scan->frames;
  const size_t snapshot_index = scan->snapshot;

  // A fresh manager recovering a journal image it did not write (the CLI path) has no write
  // stats; adopt the scanned prefix as the written history so conservation closes with zero
  // truncation attributed to the unknowable physical tail.
  if (stats_.frames_written == 0) {
    for (const JournalFrame& frame : frames) {
      ++stats_.frames_written;
      if (frame.type == JournalFrameType::kSnapshot) {
        ++stats_.snapshots_written;
      } else if (frame.type == JournalFrameType::kTickDelta) {
        ++stats_.tick_frames_written;
      }
    }
    stats_.bytes_written = frames.back().frame_end;
    // Mirror EndTick's counting: every snapshot after the initial one replaced (and counted)
    // a due tick frame, so covered-frame math closes with zero truncation attributed to the
    // physically unknowable tail.
    if (stats_.snapshots_written > 0) {
      stats_.tick_frames_written += stats_.snapshots_written - 1;
    }
  }

  uint64_t tick_frames_before = 0;
  if (Status s =
          ApplySnapshot(frames[snapshot_index].Payload(image_.bytes()), &tick_frames_before);
      !s.ok()) {
    return s;
  }
  uint64_t replayed = 0;
  uint64_t durable_tick = frames[snapshot_index].tick;
  for (size_t i = snapshot_index + 1; i < frames.size(); ++i) {
    if (frames[i].type != JournalFrameType::kTickDelta) {
      return DataLossError("non-tick frame after the recovered snapshot");
    }
    if (Status s = ApplyTickDelta(frames[i].Payload(image_.bytes())); !s.ok()) {
      return s;
    }
    ++replayed;
    durable_tick = frames[i].tick;
  }

  // The snapshot payload's tick_frames_before includes the tick a due snapshot replaced
  // (EndTick counts it before writing), so `covered` is exactly the tick frames written after
  // this snapshot — replayed ones plus whatever the lost tail carried.
  MERCURIAL_CHECK_GE(stats_.tick_frames_written, tick_frames_before);
  const uint64_t covered = stats_.tick_frames_written - tick_frames_before;
  MERCURIAL_CHECK_GE(covered, replayed);
  const uint64_t truncated = covered - replayed;

  RecoveryResult result;
  result.durable_tick = durable_tick;
  result.snapshot_tick = frames[snapshot_index].tick;
  result.frames_replayed = replayed;
  result.frames_truncated = truncated;
  result.exact = truncated == 0 && !scan->torn_tail && !scan->corrupt_frame;

  ++stats_.recoveries;
  if (result.exact) {
    ++stats_.exact_recoveries;
  } else {
    ++stats_.prefix_recoveries;
  }
  stats_.frames_replayed += replayed;
  stats_.frames_truncated += truncated;
  if (scan->torn_tail) {
    ++stats_.torn_tail_truncations;
  }
  if (scan->corrupt_frame) {
    ++stats_.corrupt_frames_rejected;
  }

  // Manifest: last valid manifest frame in the prefix (there is exactly one in practice). A
  // resumed scan starts past it, and recovered_manifest_ still holds it from the first scan.
  for (const JournalFrame& frame : frames) {
    if (frame.type == JournalFrameType::kManifest) {
      const std::span<const uint8_t> manifest =
          image_.bytes().subspan(frame.payload_begin, frame.payload_len);
      recovered_manifest_.assign(manifest.begin(), manifest.end());
    }
  }

  // Truncate to the durable prefix: everything after the last valid frame is untrusted. The
  // write cursor continues from here — recovery rewinds the journal as well as the state.
  image_.Truncate(frames.back().frame_end);
  checked_snapshot_ = frames[snapshot_index];
  last_snapshot_end_ = frames[snapshot_index].frame_end;
  tick_frames_at_last_snapshot_ = tick_frames_before;
  // Rewind the written-frame accounting to the durable prefix so post-recovery writes keep
  // conservation exact: frames written past the prefix were just accounted as truncated.
  stats_.tick_frames_written -= truncated;
  RebuildCaches();
  started_ = true;
  SyncFile();
  return result;
}

void DurabilityManager::TearTail(size_t bytes) {
  MERCURIAL_CHECK_LE(last_snapshot_end_, image_.size());
  const size_t tail = image_.size() - last_snapshot_end_;
  MERCURIAL_CHECK_LE(bytes, tail) << "torn tail cannot reach past the last snapshot";
  image_.Truncate(image_.size() - bytes);
  SyncFile();
}

void DurabilityManager::FlipBit(size_t byte_offset, int bit) {
  MERCURIAL_CHECK_GE(byte_offset, last_snapshot_end_) << "bit flips stay in the mutable tail";
  MERCURIAL_CHECK_LT(byte_offset, image_.size());
  MERCURIAL_CHECK(bit >= 0 && bit < 8);
  image_.data()[byte_offset] ^= static_cast<uint8_t>(1u << bit);
  SyncFile();
}

void DurabilityManager::ReplaceBuffer(const std::vector<uint8_t>& bytes) {
  MERCURIAL_CHECK(!started_) << "ReplaceBuffer is for recovery on a fresh manager";
  image_.Truncate(0);
  image_.Append(bytes);
  checked_snapshot_.reset();
}

std::vector<uint8_t> DurabilityManager::SaveUnits() const {
  std::vector<uint8_t> bytes;
  ByteWriter w(bytes);
  for (const Unit& unit : units_) {
    unit.save(w);
  }
  return bytes;
}

void DurabilityManager::SyncFile() const {
  if (options_.path.empty()) {
    return;
  }
  // Whole-image rewrite: the journal is modest (snapshots bound it) and recovery/chaos also
  // truncate, which an append-only stream cannot express. std::FILE keeps the dependency
  // surface minimal.
  std::FILE* file = std::fopen(options_.path.c_str(), "wb");
  MERCURIAL_CHECK(file != nullptr) << "cannot open journal file " << options_.path;
  if (image_.size() > 0) {
    const size_t written = std::fwrite(image_.bytes().data(), 1, image_.size(), file);
    MERCURIAL_CHECK_EQ(written, image_.size()) << "short journal write " << options_.path;
  }
  MERCURIAL_CHECK_EQ(std::fclose(file), 0);
}

}  // namespace mercurial
