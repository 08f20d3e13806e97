// Replicated blob store with background scrubbing (§3).
//
// "We have solved storage-failure problems via redundancy, using techniques such as erasure
// coding, ECC, or end-to-end checksums... and 'scrub' storage to detect corruption-at-rest."
//
// Each blob is stored at R replicas, each written through its own (possibly mercurial) server
// core. Writes are acknowledged without verification (the cheap path), so a defective copy
// engine leaves latent corruption at rest. Two forces then race to find it:
//   * client reads — which verify the end-to-end CRC and fail over to another replica, and
//   * the background scrubber — which walks replicas, verifies CRCs, and repairs bad copies
//     from a good one before any client notices.
// Stats separate scrub-found from read-found corruption, the §3 tradeoff made measurable.

#ifndef MERCURIAL_SRC_MITIGATE_SCRUB_STORE_H_
#define MERCURIAL_SRC_MITIGATE_SCRUB_STORE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/status.h"
#include "src/sim/core.h"

namespace mercurial {

struct ScrubStoreStats {
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t read_failovers = 0;        // reads that had to skip a corrupt replica
  uint64_t read_data_loss = 0;        // reads where EVERY replica was corrupt
  uint64_t scrubbed_replicas = 0;
  uint64_t scrub_corruptions_found = 0;
  uint64_t scrub_repairs = 0;
  uint64_t scrub_unrepairable = 0;    // all replicas corrupt: data loss found at rest
};

class ReplicatedBlobStore {
 public:
  // One replica per server core; R = server_cores.size() >= 1.
  explicit ReplicatedBlobStore(std::vector<SimCore*> server_cores);

  // Writes all replicas (each through its server's core) and acks WITHOUT verifying — latent
  // corruption is the point of this store.
  void Write(uint64_t key, const std::vector<uint8_t>& data);

  // Reads replicas in order, returning the first that passes its end-to-end CRC; DATA_LOSS
  // when none do, NOT_FOUND for unknown keys.
  StatusOr<std::vector<uint8_t>> Read(uint64_t key);

  // One scrub pass: verify every replica of every blob, in key order; repair corrupt replicas
  // by copying (through the destination server's core) from a verified-good replica. Returns
  // the number of repairs performed.
  uint64_t Scrub();

  const ScrubStoreStats& stats() const { return stats_; }
  size_t size() const { return blobs_.size(); }

 private:
  struct Blob {
    uint32_t crc = 0;  // client-computed, end-to-end
    std::vector<std::vector<uint8_t>> replicas;
  };

  std::vector<SimCore*> servers_;
  std::map<uint64_t, Blob> blobs_;  // ordered: repairs draw on the server cores in key order
  ScrubStoreStats stats_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_MITIGATE_SCRUB_STORE_H_
