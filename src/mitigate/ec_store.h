// Erasure-coded blob store (§3).
//
// The storage-efficiency counterpart of ReplicatedBlobStore: a blob is split into k data
// shards, extended with m Reed-Solomon parity shards, and each of the k+m shards is written
// through its own (possibly mercurial) server core with a per-shard CRC. A read gathers the
// CRC-valid shards and reconstructs the blob from any k of them — tolerating up to m corrupt
// shards at (k+m)/k storage overhead, versus r-way replication's r.
//
// Per-shard CRCs are what convert corrupt-but-present shards into erasures the RS code can
// handle (RS erasure decoding cannot itself locate corruption).

#ifndef MERCURIAL_SRC_MITIGATE_EC_STORE_H_
#define MERCURIAL_SRC_MITIGATE_EC_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/sim/core.h"

namespace mercurial {

struct EcStoreStats {
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t shards_discarded = 0;   // CRC-invalid shards turned into erasures at read time
  uint64_t reconstructions = 0;    // reads that needed parity math (some data shard was bad)
  uint64_t read_data_loss = 0;     // more than m shards bad
};

class ErasureCodedStore {
 public:
  // One server core per shard slot; servers.size() == data_shards + parity_shards.
  ErasureCodedStore(std::vector<SimCore*> servers, int data_shards, int parity_shards);

  // Splits, encodes, and stores; acks without verification (latent corruption possible).
  void Write(uint64_t key, const std::vector<uint8_t>& data);

  // Reassembles the blob from CRC-valid shards; DATA_LOSS when fewer than k survive or the
  // reassembled payload fails the whole-blob CRC.
  StatusOr<std::vector<uint8_t>> Read(uint64_t key);

  const EcStoreStats& stats() const { return stats_; }
  double storage_overhead() const {
    return static_cast<double>(data_shards_ + parity_shards_) /
           static_cast<double>(data_shards_);
  }

 private:
  struct Blob {
    size_t original_bytes = 0;
    uint32_t blob_crc = 0;                       // end-to-end over the original payload
    std::vector<std::vector<uint8_t>> shards;    // k data + m parity
    std::vector<uint32_t> shard_crcs;            // computed before the shards hit servers
  };

  std::vector<SimCore*> servers_;
  int data_shards_;
  int parity_shards_;
  std::unordered_map<uint64_t, Blob> blobs_;  // order-free: keyed lookups only
  EcStoreStats stats_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_MITIGATE_EC_STORE_H_
