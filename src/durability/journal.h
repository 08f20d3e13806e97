// Crash-tolerant control plane: write-ahead journal + snapshots (DESIGN.md: "state you can't
// recover is state you never had").
//
// The detection/repair control plane is itself fleet software running on unreliable machines,
// so a study must be able to kill the controller at an arbitrary tick and continue as if
// nothing happened. The DurabilityManager makes that possible with the same discipline the
// rest of the harness applies to data at rest: journal the transitions, snapshot the sums,
// checksum everything.
//
//   * Every control-plane tick appends one CRC32-framed TICK frame carrying the durable
//     deltas: full-unit payloads for registered units whose serialized state changed since
//     the last frame (detected by serialize-and-compare, so no mutation path can forget to
//     mark itself dirty), and op-log payloads for delta units whose state grows without bound
//     (blast-radius ledger, trace rings). An empty tick frame is still written — the durable
//     horizon is explicit, never inferred.
//   * Every `snapshot_every` ticks a SNAPSHOT frame captures every unit in full, bounding
//     replay length. The journal is append-only; older snapshots remain valid fallbacks.
//   * Recover() scans the journal, trusts exactly the longest prefix of valid frames (a frame
//     with a wrong CRC, unknown type, or clipped body ends the prefix — torn tails and bit
//     flips are classified and counted, never silently skipped), restores the latest valid
//     snapshot at or before the prefix end, replays the tick frames after it, and truncates
//     the journal to the durable prefix. Conservation holds at all times:
//     frames_replayed + frames_truncated == tick frames written since that snapshot.
//     A manager's first Recover() scans from offset 0; each later one resumes after the
//     snapshot the previous recovery restored, because nothing can change the bytes up to it
//     (see checked_snapshot_), so each journal byte is CRC-checked once per manager, not once
//     per recovery. Every frame a recovery applies has still been checked by a scan.
//
// Frame envelope (little-endian): [u32 payload_len][u8 type][u64 tick][payload][u32 crc32],
// with the CRC covering everything before it (length, type, tick, payload) — the same
// every-bit-flip-is-DATA_LOSS framing as the checkpoint codec (src/mitigate/checkpoint.cc)
// and the trace codec (src/telemetry/trace.cc).
//
// Determinism: the manager makes no random draws and writes units in registration order, so
// journal bytes are a pure function of the study's durable state. Chaos (controller crashes,
// torn tails, bit flips) is injected by the owning study from its own derived streams.

#ifndef MERCURIAL_SRC_DURABILITY_JOURNAL_H_
#define MERCURIAL_SRC_DURABILITY_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/wire.h"

namespace mercurial {

// Journal frame types. Values are the wire encoding.
enum class JournalFrameType : uint8_t {
  kHeader = 1,    // magic + version; always the first frame
  kManifest = 2,  // opaque caller payload (mercurialctl stores its argv for `recover`)
  kSnapshot = 3,  // full state of every registered unit
  kTickDelta = 4, // per-tick durable deltas (possibly empty: durable-horizon marker)
};

struct JournalStats {
  uint64_t frames_written = 0;     // every frame type
  uint64_t bytes_written = 0;      // framing included
  uint64_t snapshots_written = 0;
  uint64_t tick_frames_written = 0;
  uint64_t recoveries = 0;
  uint64_t exact_recoveries = 0;   // durable prefix covered every tick written
  uint64_t prefix_recoveries = 0;  // recovery fell back to an older durable prefix
  uint64_t frames_replayed = 0;    // tick frames applied across all recoveries
  uint64_t frames_truncated = 0;   // tick frames lost past the durable horizon
  uint64_t torn_tail_truncations = 0;  // scans ended by a clipped frame
  uint64_t corrupt_frames_rejected = 0;  // scans ended by a CRC/type-invalid frame
  // Wall time accumulated inside EndTick (serialize, dirty-compare, frame, write-through).
  // In-process accounting so the journal's steady-state cost can be gated as a fraction of
  // study wall time without a second run — run-to-run machine noise cancels out of a
  // same-process ratio. Pure observability: feeds no simulation state.
  uint64_t end_tick_nanos = 0;
};

// One CRC-checked frame of a journal image.
struct JournalFrame {
  JournalFrameType type = JournalFrameType::kHeader;
  uint64_t tick = 0;
  size_t payload_begin = 0;
  size_t payload_len = 0;
  size_t frame_end = 0;  // offset one past the CRC

  ByteReader Payload(std::span<const uint8_t> image) const {
    return ByteReader(image.data() + payload_begin, payload_len);
  }
};

// Unit-free structural scan of a journal image: validates the framing and every CRC, and
// reports the durable prefix without recovering any state. mercurialctl `recover` uses it to
// inspect a journal file — and read the manifest — before rebuilding the study that wrote it.
struct JournalImageInfo {
  uint64_t frames = 0;           // valid frames in the durable prefix
  uint64_t snapshots = 0;
  uint64_t tick_frames = 0;
  uint64_t durable_tick = 0;     // tick of the last valid frame
  uint64_t snapshot_tick = 0;    // tick of the latest valid snapshot
  size_t durable_prefix_bytes = 0;
  bool torn_tail = false;        // scan ended by a clipped frame
  bool corrupt_frame = false;    // scan ended by a CRC/type-invalid frame
  std::vector<uint8_t> manifest;
};

// Fails with DATA_LOSS under the same refusal rules as Recover(): no valid header or no valid
// snapshot means the image proves no durable state at all.
StatusOr<JournalImageInfo> InspectJournalImage(const std::vector<uint8_t>& image);

// Orchestrates durable state for a set of registered units. Units are registered once, in a
// deterministic order, before Start(); the registration index is the wire identity.
class DurabilityManager {
 public:
  struct Options {
    // Ticks between full snapshots. 0 = only the initial snapshot (maximal replay).
    uint64_t snapshot_every = 64;
    // Optional write-through file. Empty = in-memory journal only.
    std::string path;
  };

  struct RecoveryResult {
    uint64_t durable_tick = 0;     // last tick the durable prefix covers
    uint64_t snapshot_tick = 0;    // tick of the snapshot recovery restored
    uint64_t frames_replayed = 0;  // tick frames applied after that snapshot
    uint64_t frames_truncated = 0; // tick frames written since it but lost with the tail
    bool exact = false;            // frames_truncated == 0: recovery reached the latest tick
  };

  using SaveFn = std::function<void(ByteWriter&)>;
  using LoadFn = std::function<Status(ByteReader&)>;
  using HasOpsFn = std::function<bool()>;

  explicit DurabilityManager(Options options);

  // Full-state unit: `save` serializes the complete durable state, `load` replaces it.
  // Dirtiness is detected by comparing `save` output against the last journaled bytes.
  void RegisterUnit(std::string name, SaveFn save, LoadFn load);

  // Delta unit for unbounded structures: `save`/`load` give the full round trip (snapshots),
  // `has_ops`/`drain`/`apply` the per-tick mutation log (tick frames). `drain` must clear the
  // accumulated ops; `apply` must replay them without re-logging.
  void RegisterDeltaUnit(std::string name, SaveFn save, LoadFn load, HasOpsFn has_ops,
                         SaveFn drain, LoadFn apply);

  // Writes header, manifest, and the initial snapshot (tick = `tick`, normally the last
  // burn-in tick). Opens the write-through file if configured. Call exactly once.
  Status Start(uint64_t tick, const std::vector<uint8_t>& manifest);

  // Appends this tick's durable frame: a snapshot when one is due, a tick-delta frame
  // otherwise (always at least the empty frame — the durable horizon is explicit).
  void EndTick(uint64_t tick);

  // Restores the latest valid snapshot within the longest valid frame prefix, replays the
  // tick frames after it, truncates the journal to the durable prefix, and rebuilds the
  // dirty-detection caches. Fails with DATA_LOSS when no valid header or no valid snapshot
  // survives — a journal that cannot prove any durable state is refused loudly.
  StatusOr<RecoveryResult> Recover();

  // --- Chaos surface (journal_torn_tail / journal_bit_flip) --------------------------------
  // The mutable tail is everything after the most recent snapshot frame; damage there forces
  // prefix recovery without ever destroying the last full snapshot.
  size_t size() const { return image_.size(); }
  size_t mutable_tail_start() const { return last_snapshot_end_; }
  void TearTail(size_t bytes);                 // drops `bytes` off the end (<= tail size)
  void FlipBit(size_t byte_offset, int bit);   // flips one bit inside the mutable tail

  // A copy of the journal bytes (tests and the CLI's re-run check). ReplaceBuffer installs an
  // externally read journal image on a fresh manager before Recover(), which then scans it
  // from offset 0.
  std::vector<uint8_t> buffer() const {
    return std::vector<uint8_t>(image_.bytes().begin(), image_.bytes().end());
  }
  void ReplaceBuffer(const std::vector<uint8_t>& bytes);

  // Every registered unit's full serialization, in registration order, without writing a
  // frame or draining an op log: tests and bench_recovery compare the state that separate
  // recoveries restore.
  std::vector<uint8_t> SaveUnits() const;

  // Manifest payload found during the last Recover() (empty before recovery).
  const std::vector<uint8_t>& recovered_manifest() const { return recovered_manifest_; }

  bool started() const { return started_; }
  const Options& options() const { return options_; }
  const JournalStats& stats() const { return stats_; }
  // Tick frames written since the last snapshot frame (conservation bookkeeping).
  uint64_t tick_frames_since_snapshot() const;

 private:
  struct Unit {
    std::string name;
    SaveFn save;
    LoadFn load;
    bool is_delta = false;
    HasOpsFn has_ops;   // delta units only
    SaveFn drain;       // delta units only
    LoadFn apply;       // delta units only
    std::vector<uint8_t> last_bytes;  // full units: last journaled serialization
  };

  // The journal image, one contiguous byte array. On Linux it is an anonymous mapping grown
  // with mremap, which moves its pages instead of copying them, so a growing journal is
  // resident once (elsewhere it grows with realloc). A std::vector would hold its old and its
  // new copy together at each capacity doubling, putting up to twice the journal into a
  // durable study's peak RSS, at whichever size that doubling happened to land.
  class Image {
   public:
    Image() = default;
    Image(const Image&) = delete;
    Image& operator=(const Image&) = delete;
    ~Image();

    std::span<const uint8_t> bytes() const { return {data_, size_}; }
    uint8_t* data() { return data_; }
    size_t size() const { return size_; }
    void Append(std::span<const uint8_t> bytes);
    void Truncate(size_t size);  // keeps the first `size` bytes

   private:
    uint8_t* data_ = nullptr;
    size_t size_ = 0;
    size_t capacity_ = 0;
  };

  // BeginFrame starts frame_ with a frame's prefix; the caller appends the payload to frame_;
  // EndFrame patches the payload length, appends the CRC and appends the frame to the image.
  void BeginFrame(JournalFrameType type, uint64_t tick);
  void EndFrame();
  void AppendFrame(JournalFrameType type, uint64_t tick, const std::vector<uint8_t>& payload);
  void WriteSnapshot(uint64_t tick);
  void WriteTickDelta(uint64_t tick);
  // Each decodes one frame payload of the scanned durable prefix into the units.
  Status ApplySnapshot(ByteReader r, uint64_t* tick_frames_before);
  Status ApplyTickDelta(ByteReader r);
  void RebuildCaches();
  void SyncFile() const;

  Options options_;
  std::vector<Unit> units_;
  Image image_;
  // The frame being written, appended to the image whole. It keeps its capacity across
  // frames, so the journal's bytes are resident in the image and at most one frame.
  std::vector<uint8_t> frame_;
  std::vector<uint8_t> recovered_manifest_;
  // The snapshot the last Recover() restored. The frames up to and including it were CRC-checked
  // by that recovery's scan, and their bytes cannot have changed since: TearTail and FlipBit
  // CHECK that damage stays at or after mutable_tail_start(), which is this snapshot's end or a
  // later snapshot's; Recover() truncates only at or after the snapshot it restores; and EndTick
  // only appends. So the next Recover() resumes its scan at this frame's end. Empty before the
  // first recovery and after ReplaceBuffer, which makes the next scan start at offset 0.
  std::optional<JournalFrame> checked_snapshot_;
  size_t last_snapshot_end_ = 0;
  uint64_t tick_frames_at_last_snapshot_ = 0;
  bool started_ = false;
  JournalStats stats_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_DURABILITY_JOURNAL_H_
