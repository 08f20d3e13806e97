// End-to-end checksummed storage write path (Colossus analog, §6/§7).
//
// "Many of our applications already checked for SDCs; this checking can also detect CEEs, at
// minimal extra cost. For example, the Colossus file system protects the write path with
// end-to-end checksums."
//
// The client computes a CRC over the payload *before* handing it to the (corruptible) server
// write path; the server moves bytes through the core's copy engine. Reads re-verify. A
// mercurial copy unit therefore cannot silently corrupt stored data: the corruption is caught
// at write-ack or read time — converting would-be silent corruption into detected DATA_LOSS.

#ifndef MERCURIAL_SRC_MITIGATE_E2E_STORE_H_
#define MERCURIAL_SRC_MITIGATE_E2E_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/mitigate/blast_radius.h"
#include "src/sim/core.h"

namespace mercurial {

struct StoreStats {
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t write_corruptions_caught = 0;  // bad CRC at write verification
  uint64_t read_corruptions_caught = 0;   // bad CRC at read
  uint64_t write_retries = 0;
  uint64_t suspect_scans = 0;             // ReverifySuspect invocations
  uint64_t suspect_blobs_scanned = 0;     // blobs whose provenance matched a suspect scan
  uint64_t suspect_corruptions_found = 0; // of those, payloads failing their client CRC
};

class ChecksummedStore {
 public:
  // `server_core` executes the data path. `verify_on_write` re-reads and checks the CRC before
  // acknowledging (the end-to-end write path check); disabling it defers detection to reads.
  ChecksummedStore(SimCore* server_core, bool verify_on_write);

  // Stores a copy of `data` under `key`. With write verification, retries once and returns
  // DATA_LOSS if the stored bytes still fail the client CRC.
  Status Write(uint64_t key, const std::vector<uint8_t>& data);

  // Reads and verifies; DATA_LOSS if the payload fails its CRC, NOT_FOUND for unknown keys.
  StatusOr<std::vector<uint8_t>> Read(uint64_t key);

  // Provenance of the stored blob (the server core's id + provenance epoch at write time),
  // or nullptr for unknown keys. This is the tag the blast-radius ledger keys suspect sets on.
  const ProvenanceTag* Provenance(uint64_t key) const;

  // Retroactive-repair entry point: re-verifies every blob written by `core_global` in
  // provenance epochs [epoch_lo, epoch_hi] against its client CRC (the trusted golden
  // checksum — this is an audit scan, not a data-path read). Corrupt blobs are evicted so a
  // re-execution can rewrite them; their keys are returned in ascending order.
  std::vector<uint64_t> ReverifySuspect(uint64_t core_global, uint64_t epoch_lo,
                                        uint64_t epoch_hi);

  const StoreStats& stats() const { return stats_; }
  size_t size() const { return blobs_.size(); }

 private:
  struct Blob {
    std::vector<uint8_t> bytes;
    uint32_t crc = 0;  // client-computed, travels with the data
    ProvenanceTag provenance;  // which core materialized the bytes, and when
  };

  SimCore* server_core_;
  bool verify_on_write_;
  // order-free: keyed lookups; ReverifySuspect only counts while scanning and sorts its keys.
  std::unordered_map<uint64_t, Blob> blobs_;
  StoreStats stats_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_MITIGATE_E2E_STORE_H_
