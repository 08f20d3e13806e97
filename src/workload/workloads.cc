#include "src/workload/workload.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/substrate/checksum.h"
#include "src/substrate/lz.h"
#include "src/substrate/btree.h"
#include "src/substrate/matrix.h"
#include "src/workload/core_routines.h"

namespace mercurial {

const char* SymptomName(Symptom symptom) {
  switch (symptom) {
    case Symptom::kNone:
      return "none";
    case Symptom::kDetectedImmediately:
      return "detected_immediately";
    case Symptom::kMachineCheck:
      return "machine_check";
    case Symptom::kCrash:
      return "crash";
    case Symptom::kDetectedLate:
      return "detected_late";
    case Symptom::kSilentCorruption:
      return "silent_corruption";
  }
  return "unknown";
}

bool SymptomObservable(Symptom symptom) {
  return symptom != Symptom::kNone && symptom != Symptom::kSilentCorruption;
}

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kCompression:
      return "compression";
    case WorkloadKind::kHash:
      return "hash";
    case WorkloadKind::kCrypto:
      return "crypto";
    case WorkloadKind::kMemcpy:
      return "memcpy";
    case WorkloadKind::kLocking:
      return "locking";
    case WorkloadKind::kSorting:
      return "sorting";
    case WorkloadKind::kMatmul:
      return "matmul";
    case WorkloadKind::kGarbageCollect:
      return "garbage_collect";
    case WorkloadKind::kDbIndex:
      return "db_index";
    case WorkloadKind::kKernel:
      return "kernel";
    case WorkloadKind::kVectorScan:
      return "vector_scan";
    case WorkloadKind::kArithmetic:
      return "arithmetic";
  }
  return "unknown";
}

namespace {

// Compressible payload: runs of repeated fragments with random noise mixed in.
std::vector<uint8_t> MakeCompressiblePayload(Rng& rng, size_t n) {
  std::vector<uint8_t> data;
  data.reserve(n);
  while (data.size() < n) {
    if (rng.Bernoulli(0.6) && data.size() >= 8) {
      // Repeat an earlier fragment.
      const size_t max_back = std::min<size_t>(data.size(), 512);
      const size_t back = rng.UniformInt(4, max_back);
      const size_t len = std::min<size_t>(rng.UniformInt(4, 64), n - data.size());
      const size_t start = data.size() - back;
      for (size_t i = 0; i < len; ++i) {
        data.push_back(data[start + i]);
      }
    } else {
      const size_t len = std::min<size_t>(rng.UniformInt(1, 16), n - data.size());
      for (size_t i = 0; i < len; ++i) {
        data.push_back(static_cast<uint8_t>(rng.UniformInt(0, 255)));
      }
    }
  }
  return data;
}

std::vector<uint8_t> MakeRandomPayload(Rng& rng, size_t n) {
  std::vector<uint8_t> data(n);
  rng.FillBytes(data.data(), n);
  return data;
}

// Helper used by every Run(): snapshot op count, execute, return delta.
class OpCounterScope {
 public:
  explicit OpCounterScope(SimCore& core) : core_(core), start_(core.counters().TotalOps()) {}
  uint64_t Delta() const { return core_.counters().TotalOps() - start_; }

 private:
  SimCore& core_;
  uint64_t start_;
};

class CompressionWorkload final : public Workload {
 public:
  using Workload::Workload;

  WorkloadResult Run(SimCore& core, Rng& rng) override {
    OpCounterScope ops(core);
    const std::vector<uint8_t> data = MakeCompressiblePayload(rng, options_.payload_bytes);
    const std::vector<uint8_t> compressed = LzCompress(data);
    auto decompressed = CoreLzDecompress(core, compressed);
    if (!decompressed.ok()) {
      // Malformed stream: the decoder itself raised an error — detected immediately.
      WorkloadResult result;
      result.symptom = core.TakePendingMachineCheck() ? Symptom::kMachineCheck
                                                      : Symptom::kDetectedImmediately;
      result.wrong_output = true;
      result.ops = ops.Delta();
      return result;
    }
    // The work product is (payload, checksum): the checksum is computed on the core's CRC
    // unit and stored alongside the data, so a defective CRC unit corrupts the product too
    // (spurious verification failures downstream).
    const uint32_t stored_crc = CoreCrc32(core, *decompressed);
    const bool wrong = *decompressed != data || stored_crc != Crc32(data);
    const bool checked = rng.Bernoulli(options_.check_probability);
    // The application's end-to-end check re-verifies payload against checksum; it catches any
    // byte difference on either side.
    return Classify(core, wrong, checked, /*caught=*/wrong, ops.Delta(), rng);
  }
};

class HashWorkload final : public Workload {
 public:
  using Workload::Workload;

  WorkloadResult Run(SimCore& core, Rng& rng) override {
    OpCounterScope ops(core);
    const std::vector<uint8_t> data = MakeRandomPayload(rng, options_.payload_bytes);
    const uint64_t digest = CoreFnv1a64(core, data);
    const bool wrong = digest != Fnv1a64(data);
    // A hash consumer cannot tell a wrong digest from a right one without recomputing; the
    // check models dual computation (e.g. hash verified by a second replica).
    const bool checked = rng.Bernoulli(options_.check_probability);
    return Classify(core, wrong, checked, /*caught=*/wrong, ops.Delta(), rng);
  }
};

class CryptoWorkload final : public Workload {
 public:
  using Workload::Workload;

  WorkloadResult Run(SimCore& core, Rng& rng) override {
    OpCounterScope ops(core);
    uint8_t key[kAesKeyBytes];
    rng.FillBytes(key, sizeof(key));
    const uint64_t nonce = rng.NextU64();
    const std::vector<uint8_t> data = MakeRandomPayload(rng, options_.payload_bytes);

    const std::vector<uint8_t> ciphertext = CoreAesCtr(core, key, nonce, data);
    const std::vector<uint8_t> golden = AesCtrTransform(ExpandAesKey(key), nonce, data);
    const bool wrong = ciphertext != golden;

    // The application's self-check is a SAME-CORE round trip. This catches sporadic AES-unit
    // corruption (the two passes corrupt differently) but NOT the self-inverting key-schedule
    // defect, where encrypt∘decrypt on the defective core is the identity (§2).
    bool caught = false;
    const bool checked = rng.Bernoulli(options_.check_probability);
    if (checked) {
      const std::vector<uint8_t> roundtrip = CoreAesCtr(core, key, nonce, ciphertext);
      caught = roundtrip != data;
    }
    return Classify(core, wrong, checked, caught, ops.Delta(), rng);
  }
};

class MemcpyWorkload final : public Workload {
 public:
  using Workload::Workload;

  WorkloadResult Run(SimCore& core, Rng& rng) override {
    OpCounterScope ops(core);
    const std::vector<uint8_t> data = MakeRandomPayload(rng, options_.payload_bytes);
    const std::vector<uint8_t> copy = CoreMemcpy(core, data);
    const bool wrong = copy != data;
    const bool checked = rng.Bernoulli(options_.check_probability);
    return Classify(core, wrong, checked, /*caught=*/wrong, ops.Delta(), rng);
  }
};

class LockingWorkload final : public Workload {
 public:
  using Workload::Workload;

  WorkloadResult Run(SimCore& core, Rng& rng) override {
    OpCounterScope ops(core);
    // CAS-increment loop: the canonical lock-free counter. A drop-store defect makes a CAS
    // report success without updating memory; a phantom store writes despite failure.
    const uint64_t iterations = std::max<size_t>(options_.payload_bytes / 16, 16);
    uint64_t counter = 0;
    uint64_t retries = 0;
    for (uint64_t i = 0; i < iterations; ++i) {
      const uint64_t observed = core.Load(counter);
      const uint64_t next = core.Alu(AluOp::kAdd, observed, 1);
      if (!core.Cas(counter, observed, next)) {
        ++retries;
        if (retries > 4 * iterations) {
          break;  // livelock guard; manifests as wrong final count
        }
        --i;
      }
    }
    const bool wrong = counter != iterations;
    if (wrong && rng.Bernoulli(0.4)) {
      // "Violations of lock semantics leading to application data corruption AND CRASHES":
      // a torn invariant frequently trips an assert or deadlocks into a watchdog kill.
      WorkloadResult result;
      result.symptom = core.TakePendingMachineCheck() ? Symptom::kMachineCheck : Symptom::kCrash;
      result.wrong_output = true;
      result.ops = ops.Delta();
      return result;
    }
    const bool checked = rng.Bernoulli(options_.check_probability);
    return Classify(core, wrong, checked, /*caught=*/wrong, ops.Delta(), rng);
  }
};

class SortingWorkload final : public Workload {
 public:
  using Workload::Workload;

  WorkloadResult Run(SimCore& core, Rng& rng) override {
    OpCounterScope ops(core);
    std::vector<uint64_t> keys(std::max<size_t>(options_.payload_bytes / 8, 8));
    for (auto& key : keys) {
      key = rng.NextU64();
    }
    const std::vector<uint64_t> sorted = CoreMergeSort(core, keys);
    std::vector<uint64_t> golden = keys;
    std::sort(golden.begin(), golden.end());
    const bool wrong = sorted != golden;
    // The checker from the SDC-resilient-sorting literature [11]: order + multiset digest.
    bool caught = false;
    const bool checked = rng.Bernoulli(options_.check_probability);
    if (checked && wrong) {
      const bool order_ok = std::is_sorted(sorted.begin(), sorted.end());
      const bool multiset_ok = MultisetDigest(sorted.data(), sorted.size()) ==
                               MultisetDigest(keys.data(), keys.size());
      caught = !order_ok || !multiset_ok;
    }
    return Classify(core, wrong, checked, caught, ops.Delta(), rng);
  }
};

class MatmulWorkload final : public Workload {
 public:
  using Workload::Workload;

  WorkloadResult Run(SimCore& core, Rng& rng) override {
    OpCounterScope ops(core);
    const size_t n = 8;
    Matrix a(n, n);
    Matrix b(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        a.at(i, j) = rng.NextDouble() * 2.0 - 1.0;
        b.at(i, j) = rng.NextDouble() * 2.0 - 1.0;
      }
    }
    const Matrix c = CoreMatmul(core, a, b);
    const Matrix golden = Multiply(a, b);
    const bool wrong = c.MaxAbsDiff(golden) > 1e-9;
    const bool checked = rng.Bernoulli(options_.check_probability);
    return Classify(core, wrong, checked, /*caught=*/wrong, ops.Delta(), rng);
  }
};

class GarbageCollectWorkload final : public Workload {
 public:
  using Workload::Workload;

  WorkloadResult Run(SimCore& core, Rng& rng) override {
    OpCounterScope ops(core);
    // A mark phase over a linked heap: corrupting a pointer load either segfaults (index out
    // of range) or silently drops live objects — "corruption affecting garbage collection, in
    // a storage system, causing live data to be lost".
    const size_t object_count = std::max<size_t>(options_.payload_bytes / 8, 32);
    std::vector<uint64_t> next(object_count);
    for (size_t i = 0; i < object_count; ++i) {
      // ~70% of objects chain onward, the rest terminate (next = self, the sentinel).
      next[i] = rng.Bernoulli(0.7) ? rng.UniformInt(0, object_count - 1) : i;
    }
    const size_t root_count = std::max<size_t>(object_count / 8, 4);

    std::vector<bool> marked(object_count, false);
    std::vector<bool> golden_marked(object_count, false);
    for (size_t r = 0; r < root_count; ++r) {
      const size_t root = rng.UniformInt(0, object_count - 1);
      // Golden traversal.
      size_t g = root;
      while (!golden_marked[g]) {
        golden_marked[g] = true;
        g = next[g];
      }
      // Core-routed traversal: each pointer chase is a load.
      uint64_t index = root;
      size_t hops = 0;
      while (hops++ < object_count + 1) {
        if (index >= object_count) {
          // Wild pointer: segmentation fault.
          WorkloadResult result;
          result.symptom =
              core.TakePendingMachineCheck() ? Symptom::kMachineCheck : Symptom::kCrash;
          result.wrong_output = false;  // crashed before externalizing anything
          result.ops = ops.Delta();
          return result;
        }
        if (marked[index]) {
          break;
        }
        marked[index] = true;
        index = core.Load(next[index]);
      }
    }
    // Live data lost = golden-live object not marked. There is no cheap application check for
    // this (the GC's output *is* the source of truth), so it is silent by construction.
    bool lost_live_data = false;
    for (size_t i = 0; i < object_count; ++i) {
      if (golden_marked[i] && !marked[i]) {
        lost_live_data = true;
        break;
      }
    }
    return Classify(core, lost_live_data, /*checked=*/false, /*caught=*/false, ops.Delta(), rng);
  }
};

class DbIndexWorkload final : public Workload {
 public:
  using Workload::Workload;

  WorkloadResult Run(SimCore& core, Rng& rng) override {
    OpCounterScope ops(core);
    // A real B-tree index served with core-routed probe loads: "database index corruption
    // leading to some queries, depending on which replica (core) serves them, being
    // non-deterministically corrupted."
    const size_t key_count = std::max<size_t>(options_.payload_bytes / 8, 64);
    BTree index;
    uint64_t k = rng.UniformInt(0, 1000);
    std::vector<uint64_t> keys;
    keys.reserve(key_count);
    for (size_t i = 0; i < key_count; ++i) {
      index.Insert(k, /*value=*/Mix64(k));
      keys.push_back(k);
      k += 1 + rng.UniformInt(0, 16);
    }
    const size_t query_count = 16;
    bool wrong = false;
    bool caught = false;
    for (size_t q = 0; q < query_count; ++q) {
      const uint64_t needle = keys[rng.UniformInt(0, key_count - 1)];
      const auto row = index.LookupThrough(
          needle, [&core](uint64_t separator) { return core.Load(separator); });
      if (!row.has_value()) {
        // Key present but not found: the query silently returns an empty result.
        wrong = true;
      } else if (*row != Mix64(needle)) {
        // Wrong row served; the application can cheaply validate the returned record.
        wrong = true;
        caught = true;
      }
    }
    const bool checked = rng.Bernoulli(options_.check_probability);
    return Classify(core, wrong, checked, caught, ops.Delta(), rng);
  }
};

class KernelWorkload final : public Workload {
 public:
  using Workload::Workload;

  WorkloadResult Run(SimCore& core, Rng& rng) override {
    OpCounterScope ops(core);
    // Privileged state machine: a run queue of words mutated by load-modify-store cycles.
    // "Corruption of kernel state resulting in process and kernel crashes and application
    // malfunctions."
    constexpr size_t kSlots = 32;
    uint64_t state[kSlots];
    uint64_t shadow[kSlots];
    for (size_t i = 0; i < kSlots; ++i) {
      state[i] = shadow[i] = rng.NextU64();
    }
    const uint64_t updates = std::max<size_t>(options_.payload_bytes / 8, 64);
    for (uint64_t u = 0; u < updates; ++u) {
      const size_t slot = rng.UniformInt(0, kSlots - 1);
      const uint64_t delta = rng.NextU64();
      const uint64_t value = core.Load(state[slot]);
      const uint64_t updated = core.Alu(AluOp::kXor, value, delta);
      state[slot] = core.Store(updated);
      shadow[slot] ^= delta;
    }
    const bool wrong = std::memcmp(state, shadow, sizeof(state)) != 0;
    if (wrong && rng.Bernoulli(0.6)) {
      // Corrupt kernel state usually panics (bad pointer, failed invariant) rather than
      // silently persisting.
      WorkloadResult result;
      result.symptom = core.TakePendingMachineCheck() ? Symptom::kMachineCheck : Symptom::kCrash;
      result.wrong_output = true;
      result.ops = ops.Delta();
      return result;
    }
    // Kernels have few end-to-end checks; corrupt state that doesn't panic stays silent.
    return Classify(core, wrong, /*checked=*/false, /*caught=*/false, ops.Delta(), rng);
  }
};

class VectorScanWorkload final : public Workload {
 public:
  using Workload::Workload;

  WorkloadResult Run(SimCore& core, Rng& rng) override {
    OpCounterScope ops(core);
    // SIMD scan/fold over a buffer — the analytics-kernel pattern that §5 pairs with copy
    // operations on shared defective logic.
    const std::vector<uint8_t> data = MakeRandomPayload(rng, options_.payload_bytes);
    const uint64_t fold = CoreVectorXorFold(core, data);
    // Golden fold.
    uint64_t expected = 0;
    size_t i = 0;
    while (i < data.size()) {
      const size_t chunk = std::min<size_t>(16, data.size() - i);
      uint8_t buffer[16] = {0};
      std::memcpy(buffer, &data[i], chunk);
      uint64_t lo;
      uint64_t hi;
      std::memcpy(&lo, buffer, 8);
      std::memcpy(&hi, buffer + 8, 8);
      expected ^= lo ^ hi;
      i += 16;
    }
    const bool wrong = fold != expected;
    const bool checked = rng.Bernoulli(options_.check_probability);
    return Classify(core, wrong, checked, /*caught=*/wrong, ops.Delta(), rng);
  }
};

class ArithmeticWorkload final : public Workload {
 public:
  using Workload::Workload;

  WorkloadResult Run(SimCore& core, Rng& rng) override {
    OpCounterScope ops(core);
    // Fixed-point "math library" kernel: interleaved multiply/divide/accumulate chains.
    const uint64_t iterations = std::max<size_t>(options_.payload_bytes / 16, 16);
    uint64_t acc = 0;
    uint64_t golden = 0;
    for (uint64_t i = 0; i < iterations; ++i) {
      const uint64_t a = rng.NextU64() | 1;
      const uint64_t b = (rng.NextU64() | 1) & 0xffffffff;
      const uint64_t q = core.Div(a, b);
      const uint64_t p = core.Mul(q, b);
      acc = core.Alu(AluOp::kXor, acc, core.Alu(AluOp::kAdd, p, q));
      const uint64_t gq = a / b;
      const uint64_t gp = gq * b;
      golden ^= gp + gq;
    }
    const bool wrong = acc != golden;
    const bool checked = rng.Bernoulli(options_.check_probability);
    return Classify(core, wrong, checked, /*caught=*/wrong, ops.Delta(), rng);
  }
};

}  // namespace

WorkloadResult Workload::Classify(SimCore& core, bool wrong, bool checked, bool caught,
                                  uint64_t ops, Rng& rng) const {
  WorkloadResult result;
  result.ops = ops;
  result.wrong_output = wrong;
  if (core.TakePendingMachineCheck()) {
    result.symptom = Symptom::kMachineCheck;
    return result;
  }
  if (!wrong) {
    result.symptom = Symptom::kNone;
    return result;
  }
  if (checked && caught) {
    result.symptom = rng.Bernoulli(options_.late_check_fraction) ? Symptom::kDetectedLate
                                                                 : Symptom::kDetectedImmediately;
  } else {
    result.symptom = Symptom::kSilentCorruption;
  }
  return result;
}

std::unique_ptr<Workload> MakeWorkload(WorkloadKind kind, WorkloadOptions options) {
  switch (kind) {
    case WorkloadKind::kCompression:
      return std::make_unique<CompressionWorkload>(kind, options);
    case WorkloadKind::kHash:
      return std::make_unique<HashWorkload>(kind, options);
    case WorkloadKind::kCrypto:
      return std::make_unique<CryptoWorkload>(kind, options);
    case WorkloadKind::kMemcpy:
      return std::make_unique<MemcpyWorkload>(kind, options);
    case WorkloadKind::kLocking:
      return std::make_unique<LockingWorkload>(kind, options);
    case WorkloadKind::kSorting:
      return std::make_unique<SortingWorkload>(kind, options);
    case WorkloadKind::kMatmul:
      return std::make_unique<MatmulWorkload>(kind, options);
    case WorkloadKind::kGarbageCollect:
      return std::make_unique<GarbageCollectWorkload>(kind, options);
    case WorkloadKind::kDbIndex:
      return std::make_unique<DbIndexWorkload>(kind, options);
    case WorkloadKind::kKernel:
      return std::make_unique<KernelWorkload>(kind, options);
    case WorkloadKind::kVectorScan:
      return std::make_unique<VectorScanWorkload>(kind, options);
    case WorkloadKind::kArithmetic:
      return std::make_unique<ArithmeticWorkload>(kind, options);
  }
  MERCURIAL_CHECK(false) << "unknown workload kind";
  return nullptr;
}

std::vector<std::unique_ptr<Workload>> BuildStandardCorpus(WorkloadOptions options) {
  std::vector<std::unique_ptr<Workload>> corpus;
  corpus.reserve(kWorkloadKindCount);
  for (int i = 0; i < kWorkloadKindCount; ++i) {
    corpus.push_back(MakeWorkload(static_cast<WorkloadKind>(i), options));
  }
  return corpus;
}

}  // namespace mercurial
