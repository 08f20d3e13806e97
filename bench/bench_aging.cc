// E11: age until onset and lifetime screening (§4, §6).
//
// Paper claims reproduced:
//   * "these can manifest long after initial installation" / "some cores only become
//     defective after considerable time has passed";
//   * "Age until onset... this metric depends on how long you can wait, and requires
//     continual screening over a machine's lifetime";
//   * pre-deployment burn-in alone cannot catch latent defects — "testing becomes part of the
//     full lifecycle of a CPU".
//
// Output: the planted onset distribution, then caught-fraction and latency for burn-in-only
// vs lifetime screening.

#include <cstdio>

#include "src/common/csv.h"
#include "src/core/fleet_study.h"

using namespace mercurial;

int main() {
  std::printf("# E11 — latent defects: onset distribution and lifetime screening\n");

  // Onset distribution of the planted population (ground truth; all latent).
  StudyOptions base;
  base.seed = 606;
  base.fleet.machine_count = 1200;
  base.fleet.mercurial_rate_multiplier = 40.0;
  base.fleet.install_spread = SimTime::Days(0);  // everyone installed at t=0: clean ages
  base.duration = SimTime::Days(2 * 365);
  base.work_units_per_core_day = 15;
  base.workload.payload_bytes = 256;

  {
    Fleet fleet = Fleet::Build(base.fleet);
    Histogram onset_days(0.0, 1100.0, 11);
    size_t latent = 0;
    for (uint64_t index : fleet.mercurial_cores()) {
      for (const Defect& defect : fleet.core(index).defects()) {
        const double days = defect.spec().aging.onset.days();
        if (days > 0.0) {
          ++latent;
          onset_days.Add(days);
        }
      }
    }
    std::printf("# planted: %zu mercurial cores, %zu latent defects\n",
                fleet.mercurial_cores().size(), latent);
    CsvWriter csv(stdout);
    csv.Header({"onset_bucket_days", "latent_defects"});
    for (size_t b = 0; b < onset_days.buckets().size(); ++b) {
      csv.Row({CsvWriter::Num(onset_days.bucket_lo(b)), CsvWriter::Num(onset_days.buckets()[b])});
    }
    std::printf("# expected: onsets spread over ~3 years — screening can never be 'done'.\n\n");
  }

  CsvWriter csv(stdout);
  csv.Header({"strategy", "caught_fraction", "latency_p50_days", "latency_p90_days",
              "screen_failures"});

  struct Strategy {
    const char* label;
    bool burn_in;
    bool lifetime_screening;
  };
  const Strategy strategies[] = {
      {"burn-in-only", true, false},
      {"lifetime-only", false, true},
      {"burn-in+lifetime", true, true},
  };

  for (const Strategy& strategy : strategies) {
    StudyOptions options = base;
    options.burn_in = strategy.burn_in;
    options.screening.offline_enabled = strategy.lifetime_screening;
    options.screening.online_enabled = strategy.lifetime_screening;
    // Full coverage from day one so this experiment isolates AGE effects from corpus growth.
    options.screening.initial_coverage.clear();
    for (int u = 0; u < kExecUnitCount; ++u) {
      options.screening.initial_coverage.push_back(static_cast<ExecUnit>(u));
    }
    options.screening.coverage_schedule.clear();

    FleetStudy study(options);
    const StudyReport report = study.Run();
    const double caught =
        report.true_mercurial_cores == 0
            ? 0.0
            : static_cast<double>(report.mercurial_retired) /
                  static_cast<double>(report.true_mercurial_cores);
    csv.Row({strategy.label, CsvWriter::Num(caught),
             CsvWriter::Num(report.detection_latency_days.Quantile(0.5)),
             CsvWriter::Num(report.detection_latency_days.Quantile(0.9)),
             CsvWriter::Num(report.screen_failures)});
  }

  std::printf("# expected shape: burn-in-only catches the born-bad cores but misses every\n");
  std::printf("# late-onset defect; lifetime screening keeps catching them as they activate;\n");
  std::printf("# the combination catches the most, soonest.\n");
  return 0;
}
