#include "src/detect/mca_log.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"

namespace mercurial {

McaLog::McaLog(size_t capacity) : capacity_(capacity) {
  MERCURIAL_CHECK_GT(capacity, 0u);
  records_.reserve(capacity);
}

void McaLog::Append(const McaRecord& record) {
  if (records_.size() < capacity_) {
    records_.push_back(record);
  } else {
    records_[head_] = record;
  }
  head_ = (head_ + 1) % capacity_;
  ++total_appended_;
}

std::vector<McaRecord> McaLog::Snapshot() const {
  if (records_.size() < capacity_) {
    return records_;
  }
  std::vector<McaRecord> ordered;
  ordered.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    ordered.push_back(records_[(head_ + i) % records_.size()]);
  }
  return ordered;
}

McaAnalysis AnalyzeMcaLog(const McaLog& log, uint64_t recidivism_threshold) {
  struct CoreAccumulator {
    uint64_t machine = 0;
    uint64_t count = 0;
    std::array<uint64_t, kExecUnitCount> bank_counts{};
    std::unordered_map<uint64_t, uint64_t> syndrome_counts;  // order-free: any count >= 2
    SimTime first_seen;
    SimTime last_seen;
  };

  McaAnalysis analysis;
  // order-free: findings are sorted below by (record count, core), a full tiebreak.
  std::unordered_map<uint64_t, CoreAccumulator> by_core;
  for (const McaRecord& record : log.Snapshot()) {
    ++analysis.records_analyzed;
    CoreAccumulator& acc = by_core[record.core_global];
    if (acc.count == 0) {
      acc.first_seen = record.time;
      acc.machine = record.machine;
    }
    acc.last_seen = record.time;
    ++acc.count;
    ++acc.bank_counts[static_cast<size_t>(record.bank)];
    ++acc.syndrome_counts[record.syndrome];
  }
  analysis.distinct_cores = by_core.size();

  for (const auto& [core, acc] : by_core) {
    if (acc.count < recidivism_threshold) {
      continue;
    }
    McaCoreFinding finding;
    finding.core_global = core;
    finding.machine = acc.machine;
    finding.record_count = acc.count;
    finding.first_seen = acc.first_seen;
    finding.last_seen = acc.last_seen;
    uint64_t best = 0;
    for (int bank = 0; bank < kExecUnitCount; ++bank) {
      if (acc.bank_counts[static_cast<size_t>(bank)] > best) {
        best = acc.bank_counts[static_cast<size_t>(bank)];
        finding.dominant_bank = static_cast<ExecUnit>(bank);
      }
    }
    finding.bank_concentration = static_cast<double>(best) / static_cast<double>(acc.count);
    for (const auto& [syndrome, count] : acc.syndrome_counts) {
      if (count >= 2) {
        finding.repeated_syndrome = true;
        break;
      }
    }
    analysis.recidivists.push_back(finding);
  }
  std::sort(analysis.recidivists.begin(), analysis.recidivists.end(),
            [](const McaCoreFinding& a, const McaCoreFinding& b) {
              if (a.record_count != b.record_count) {
                return a.record_count > b.record_count;
              }
              return a.core_global < b.core_global;
            });
  return analysis;
}

}  // namespace mercurial
