#include "src/mitigate/checkpoint.h"

#include "src/common/logging.h"
#include "src/common/wire.h"
#include "src/substrate/checksum.h"

namespace mercurial {

namespace {

constexpr uint32_t kCheckpointMagic = 0x4d434b50;  // "MCKP"

// Everything the frame's CRC covers.
struct CheckpointBody {
  uint32_t magic = 0;
  ProvenanceTag provenance;
  uint64_t state = 0;
};

template <class S, class Io>
void WireCheckpointBody(S& body, Io& io) {
  io.U32(body.magic);
  io.U64(body.provenance.core_global, body.provenance.epoch, body.state);
}

}  // namespace

std::vector<uint8_t> SerializeCheckpoint(uint64_t state, const ProvenanceTag& provenance) {
  std::vector<uint8_t> out;
  out.reserve(kCheckpointFrameBytes);
  ByteWriter w(out);
  WireOut io(w);
  const CheckpointBody body{kCheckpointMagic, provenance, state};
  WireCheckpointBody(body, io);
  w.PutU32(Crc32(out.data(), out.size()));
  return out;
}

StatusOr<uint64_t> RestoreCheckpoint(const std::vector<uint8_t>& bytes,
                                     ProvenanceTag* provenance) {
  if (bytes.size() != kCheckpointFrameBytes) {
    return DataLossError("checkpoint frame truncated or oversized");
  }
  ByteReader r(bytes.data(), bytes.size());
  WireIn io(r);
  CheckpointBody body;
  uint32_t stored_crc = 0;
  WireCheckpointBody(body, io);
  io.U32(stored_crc);
  MERCURIAL_CHECK(io.ok()) << "the size check covers every field";
  if (body.magic != kCheckpointMagic) {
    return DataLossError("checkpoint frame has bad magic");
  }
  if (Crc32(bytes.data(), kCheckpointFrameBytes - 4) != stored_crc) {
    return DataLossError("checkpoint frame failed integrity check");
  }
  if (provenance != nullptr) {
    *provenance = body.provenance;
  }
  return body.state;
}

CheckpointRunner::CheckpointRunner(std::vector<SimCore*> pool) : pool_(std::move(pool)) {
  MERCURIAL_CHECK_GE(pool_.size(), 1u);
  for (SimCore* core : pool_) {
    MERCURIAL_CHECK(core != nullptr);
  }
}

SimCore& CheckpointRunner::NextCore() {
  SimCore& core = *pool_[cursor_ % pool_.size()];
  ++cursor_;
  return core;
}

StatusOr<uint64_t> CheckpointRunner::Run(const GranuleFn& granule, const GranuleChecker& checker,
                                         uint64_t initial_state, int granules,
                                         int max_retries_per_granule) {
  uint64_t state = initial_state;  // the committed checkpoint
  for (int g = 0; g < granules; ++g) {
    bool committed = false;
    for (int attempt = 0; attempt <= max_retries_per_granule; ++attempt) {
      const uint64_t next = granule(NextCore(), state);
      ++stats_.granule_executions;
      if (checker(state, next)) {
        state = next;
        committed = true;
        ++stats_.granules_committed;
        break;
      }
      ++stats_.rollbacks;
    }
    if (!committed) {
      ++stats_.failures;
      return AbortedError("granule exhausted its retry budget");
    }
  }
  return state;
}

StatusOr<uint64_t> CheckpointRunner::RunPaired(const GranuleFn& granule, uint64_t initial_state,
                                               int granules, int max_retries_per_granule) {
  MERCURIAL_CHECK_GE(pool_.size(), 2u);
  uint64_t state = initial_state;
  for (int g = 0; g < granules; ++g) {
    bool committed = false;
    for (int attempt = 0; attempt <= max_retries_per_granule; ++attempt) {
      const uint64_t a = granule(NextCore(), state);
      const uint64_t b = granule(NextCore(), state);
      stats_.granule_executions += 2;
      if (a == b) {
        state = a;
        committed = true;
        ++stats_.granules_committed;
        break;
      }
      ++stats_.rollbacks;
    }
    if (!committed) {
      ++stats_.failures;
      return AbortedError("paired granule exhausted its retry budget");
    }
  }
  return state;
}

}  // namespace mercurial
