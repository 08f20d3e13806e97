// Workload corpus: realistic computations classified into the paper's §2 symptom taxonomy.
//
// Each Workload::Run executes one unit of work on a SimCore and reports what an operator
// would observe (the Symptom) alongside harness-only ground truth (whether the output was
// actually wrong). On a healthy core the result is always {kNone, wrong_output=false} — the
// fleet simulator exploits this for its fast path.
//
// A workload knows only its kind. The execution units each kind exercises are listed once, in
// PlacementPlanner::StandardProfiles (src/sched/placement.cc), index-aligned with WorkloadKind.

#ifndef MERCURIAL_SRC_WORKLOAD_WORKLOAD_H_
#define MERCURIAL_SRC_WORKLOAD_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/core.h"

namespace mercurial {

// §2's classification, "in increasing order of risk they present". kCrash is a detected,
// disruptive symptom (process/kernel crash) grouped with machine checks for reporting.
enum class Symptom : uint8_t {
  kNone = 0,             // correct execution, nothing observed
  kDetectedImmediately,  // wrong answer caught by self-checking/exception in time to retry
  kMachineCheck,         // hardware-reported fault; disruptive
  kCrash,                // process/kernel crash (segfault, assert, watchdog)
  kDetectedLate,         // wrong answer detected only after results were externalized
  kSilentCorruption,     // wrong answer never detected (ground truth only)
};

inline constexpr int kSymptomCount = 6;

const char* SymptomName(Symptom symptom);

// True for symptoms an operator can observe (everything except kNone and kSilentCorruption).
bool SymptomObservable(Symptom symptom);

struct WorkloadResult {
  Symptom symptom = Symptom::kNone;
  bool wrong_output = false;  // ground truth: output differed from golden
  uint64_t ops = 0;           // core micro-ops consumed, for cost accounting
};

// Knobs shared by all corpus workloads.
struct WorkloadOptions {
  size_t payload_bytes = 1024;     // size of one unit of work
  double check_probability = 0.5;  // how often the application runs its self-check
  // Of the checks that do catch a wrong answer, the fraction that happen only after the
  // result was externalized ("too late to retry the computation").
  double late_check_fraction = 0.3;
};

// Identifiers for the standard corpus ("compression, hash, math, cryptography, copying,
// locking" plus the production-incident analogs from §2).
enum class WorkloadKind : uint8_t {
  kCompression = 0,
  kHash,
  kCrypto,
  kMemcpy,
  kLocking,
  kSorting,
  kMatmul,
  kGarbageCollect,
  kDbIndex,
  kKernel,
  kVectorScan,
  kArithmetic,
};

inline constexpr int kWorkloadKindCount = 12;

const char* WorkloadKindName(WorkloadKind kind);

class Workload {
 public:
  Workload(WorkloadKind kind, WorkloadOptions options)
      : options_(options), name_(WorkloadKindName(kind)) {}
  virtual ~Workload() = default;

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // WorkloadKindName of the kind MakeWorkload built.
  const std::string& name() const { return name_; }

  // Executes one unit of work. Deterministic given (core state, rng state).
  virtual WorkloadResult Run(SimCore& core, Rng& rng) = 0;

  const WorkloadOptions& options() const { return options_; }

 protected:
  // Shared epilogue: pending machine checks dominate; correct results are kNone; wrong results
  // caught by a check that ran are detected (late with probability late_check_fraction), and
  // everything else is silent corruption. `checked` is whether the app-level check ran this
  // time, `caught` whether it would notice this particular corruption.
  WorkloadResult Classify(SimCore& core, bool wrong, bool checked, bool caught, uint64_t ops,
                          Rng& rng) const;

  WorkloadOptions options_;

 private:
  std::string name_;
};

std::unique_ptr<Workload> MakeWorkload(WorkloadKind kind, WorkloadOptions options);

// The full standard corpus, one instance of each kind.
std::vector<std::unique_ptr<Workload>> BuildStandardCorpus(WorkloadOptions options);

}  // namespace mercurial

#endif  // MERCURIAL_SRC_WORKLOAD_WORKLOAD_H_
