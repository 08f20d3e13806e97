// Hot-path benchmark: defective-core dispatch and end-to-end fleet-study throughput.
//
// The per-op inner loop of the simulator used to rebuild the Environment and recompute each
// defect's FireProbability (three exp() plus a pow()) for every matched op on every defective
// core. The armed-defect cache in SimCore hoists that work out of the op loop, invalidated by
// an environment revision counter; this bench quantifies the win on both scales the ISSUE
// cares about:
//
//   * dispatch    — raw micro-ops/sec through SimCore::Dispatch on a multi-defect core, fast
//     path vs the reference path, with a counters cross-check (corruptions, machine checks,
//     per-unit ops must match exactly — the cache must be RNG-stream neutral).
//   * battery     — ns per StressUnit iteration for each unit on the same core. The fast path
//     skips the units with no armed defect (all but ALU and MUL here) and only makes their
//     draws; the reference path executes every op. Results, counters and the battery stream's
//     next draw must match exactly.
//   * end_to_end  — work-units/sec of a whole FleetStudy (production + screening +
//     quarantine), fast path vs reference, single-threaded so the ratio isolates the fast
//     path: the armed cache and the battery skip.
//   * tracing     — upper bound on the incident flight recorder's cost when disabled, measured
//     as study wall time with tracing off vs an enabled-but-fully-sampled-out shadow recorder;
//     --max-trace-overhead-pct turns the bound into a CI gate.
//
// Each configuration runs --repeats times (default 3) and reports the median wall time.
//
//   bench_hotpath --ops=2000000 --machines=300 --days=150 --json=BENCH_hotpath.json
//
// Output: human-readable table on stdout plus a JSON artifact. Exit code 2 if the fast and
// reference paths diverge in any counter, battery result or study report (a stream-neutrality
// bug), 3 if the tracing overhead bound exceeds --max-trace-overhead-pct, 0 otherwise.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/core/fleet_study.h"
#include "src/sim/core.h"
#include "src/workload/stress.h"

using namespace mercurial;

namespace {

// A defective core representative of an interrogation target: several defects on the hot
// integer units with realistic (low) base rates, f/V/T slopes, aging growth past onset, a
// data-pattern trigger, and a machine-check escalation fraction — so the reference path pays
// the full probability-surface recomputation per op.
SimCore BuildDefectiveCore(uint64_t seed) {
  SimCore core(/*id=*/seed, Rng(seed));
  core.set_dvfs(DvfsCurve{1.0, 3.5, 0.65, 1.10});
  core.set_age(SimTime::Days(500));

  DefectSpec bitflip;
  bitflip.label = "alu-bitflip";
  bitflip.unit = ExecUnit::kIntAlu;
  bitflip.effect = DefectEffect::kBitFlip;
  bitflip.bit_index = 17;
  bitflip.fvt.base_rate = 2e-5;
  bitflip.fvt.freq_slope = 1.5;
  bitflip.fvt.temp_slope = 0.8;
  bitflip.aging.onset = SimTime::Days(100);
  bitflip.aging.growth_per_year = 0.5;
  core.AddDefect(bitflip);

  DefectSpec pattern;
  pattern.label = "alu-pattern-wrong";
  pattern.unit = ExecUnit::kIntAlu;
  pattern.effect = DefectEffect::kDeterministicWrong;
  pattern.trigger.mask = 0xff;
  pattern.trigger.value = 0x2a;
  pattern.fvt.base_rate = 1e-4;
  pattern.fvt.volt_slope = 2.0;
  core.AddDefect(pattern);

  DefectSpec mce;
  mce.label = "alu-mce";
  mce.unit = ExecUnit::kIntAlu;
  mce.effect = DefectEffect::kRandomWrong;
  mce.fvt.base_rate = 5e-6;
  mce.machine_check_fraction = 0.5;
  core.AddDefect(mce);

  DefectSpec mul;
  mul.label = "mul-random-wrong";
  mul.unit = ExecUnit::kIntMul;
  mul.effect = DefectEffect::kRandomWrong;
  mul.fvt.base_rate = 3e-5;
  mul.fvt.freq_slope = 0.7;
  mul.aging.onset = SimTime::Days(50);
  mul.aging.growth_per_year = 0.2;
  core.AddDefect(mul);

  return core;
}

struct DispatchResult {
  double seconds = 0.0;
  uint64_t ops = 0;
  uint64_t corruptions = 0;
  uint64_t machine_checks = 0;
};

DispatchResult RunDispatch(uint64_t ops, uint64_t seed, bool fast_path) {
  SimCore core = BuildDefectiveCore(seed);
  core.set_fast_path(fast_path);
  // Deterministic operand stream, independent of the core's defect stream, so both paths see
  // byte-identical inputs.
  uint64_t operand_state = 0x6d65726375726961ull ^ seed;
  DispatchResult result;
  result.seconds = bench::TimeSeconds([&] {
    for (uint64_t i = 0; i < ops; ++i) {
      const uint64_t a = SplitMix64(operand_state);
      const uint64_t b = SplitMix64(operand_state);
      switch (i & 3) {
        case 0:
          core.Alu(AluOp::kAdd, a, b);
          break;
        case 1:
          core.Alu(AluOp::kXor, a, b);
          break;
        case 2:
          core.Mul(a, b);
          break;
        default:
          core.Alu(AluOp::kRotl, a, b);
          break;
      }
      // Consumed like a task harness would; keeps the pending flag from saturating.
      core.TakePendingMachineCheck();
    }
  });
  result.ops = core.counters().TotalOps();
  result.corruptions = core.counters().corruptions;
  result.machine_checks = core.counters().machine_checks;
  return result;
}

struct BatteryResult {
  double seconds = 0.0;
  UnitStressResult result;
  CoreCounters counters;
  uint64_t next_draw = 0;  // the battery stream's next draw after the run

  bool operator==(const BatteryResult& other) const {
    return result == other.result && counters == other.counters &&
           next_draw == other.next_draw;
  }
};

BatteryResult RunBattery(ExecUnit unit, uint64_t iterations, uint64_t seed, bool fast_path) {
  SimCore core = BuildDefectiveCore(seed);
  core.set_fast_path(fast_path);
  Rng rng(seed ^ 0x62617474657279ull);
  BatteryResult out;
  out.seconds = bench::TimeSeconds([&] { out.result = StressUnit(core, rng, unit, iterations); });
  out.counters = core.counters();
  out.next_draw = rng.NextU64();
  return out;
}

struct StudyResult {
  double seconds = 0.0;
  StudyReport report;
};

StudyResult RunStudy(size_t machines, int days, uint64_t seed, bool fast_path,
                     const TraceOptions& trace = TraceOptions{}) {
  SetDispatchFastPath(fast_path);
  StudyOptions options;
  options.seed = seed;
  options.fleet.machine_count = machines;
  options.fleet.mercurial_rate_multiplier = 150.0;
  options.duration = SimTime::Days(days);
  options.work_units_per_core_day = 20;
  options.workload.payload_bytes = 256;
  options.screening.offline_period = SimTime::Days(30);
  options.trace = trace;
  FleetStudy study(options);
  SetDispatchFastPath(true);  // restore the default for anything constructed later
  StudyResult result;
  result.seconds = bench::TimeSeconds([&] { result.report = study.Run(); });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.DefineInt("ops", 2000000, "micro-ops per dispatch measurement");
  flags.DefineInt("machines", 300, "fleet size for the end-to-end measurement");
  flags.DefineInt("days", 150, "simulated duration for the end-to-end measurement");
  flags.DefineInt("seed", 42, "master seed");
  flags.DefineInt("repeats", 3, "timed runs per configuration (median reported)");
  flags.DefineDouble("max-trace-overhead-pct", 0.0,
                     "fail (exit 3) if the flight-recorder overhead bound exceeds this percent "
                     "(0 = report only)");
  flags.DefineString("json", "BENCH_hotpath.json", "path for the JSON artifact ('' = skip)");
  if (!flags.ParseOrUsage(argc, argv)) {
    return 1;
  }

  const uint64_t ops = static_cast<uint64_t>(flags.GetInt("ops"));
  const size_t machines = static_cast<size_t>(flags.GetInt("machines"));
  const int days = static_cast<int>(flags.GetInt("days"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const int repeats = std::max(1, static_cast<int>(flags.GetInt("repeats")));

  // --- dispatch ------------------------------------------------------------------------------
  std::vector<double> ref_times;
  std::vector<double> fast_times;
  DispatchResult ref;
  DispatchResult fast;
  for (int r = 0; r < repeats; ++r) {
    ref = RunDispatch(ops, seed, /*fast_path=*/false);
    fast = RunDispatch(ops, seed, /*fast_path=*/true);
    ref_times.push_back(ref.seconds);
    fast_times.push_back(fast.seconds);
  }
  const double ref_s = bench::Median(ref_times);
  const double fast_s = bench::Median(fast_times);
  const double ref_ops_per_sec = static_cast<double>(ref.ops) / ref_s;
  const double fast_ops_per_sec = static_cast<double>(fast.ops) / fast_s;
  const bool counters_match = ref.ops == fast.ops && ref.corruptions == fast.corruptions &&
                              ref.machine_checks == fast.machine_checks;

  std::printf("# hotpath — dispatch: %llu ops on a 4-defect core, median of %d\n",
              static_cast<unsigned long long>(ops), repeats);
  std::printf("%-24s %12s %14s %10s\n", "config", "wall_s", "ops/sec", "speedup");
  std::printf("%-24s %12.3f %14.0f %9.2fx\n", "reference path", ref_s, ref_ops_per_sec, 1.0);
  std::printf("%-24s %12.3f %14.0f %9.2fx\n", "fast path (armed cache)", fast_s,
              fast_ops_per_sec, ref_s / fast_s);
  std::printf("# counters bit-identical (corruptions %llu, machine checks %llu): %s\n",
              static_cast<unsigned long long>(fast.corruptions),
              static_cast<unsigned long long>(fast.machine_checks),
              counters_match ? "yes" : "NO — BUG");

  // --- battery -------------------------------------------------------------------------------
  const uint64_t battery_iterations = std::max<uint64_t>(1, ops / kExecUnitCount);
  bool battery_match = true;
  double battery_ref_ns = 0.0;
  double battery_fast_ns = 0.0;
  std::vector<bench::JsonObject> battery_rows;
  std::printf("# hotpath — battery: %llu StressUnit iterations per unit on the same core, "
              "median of %d\n",
              static_cast<unsigned long long>(battery_iterations), repeats);
  std::printf("%-24s %9s %14s %14s %10s\n", "unit", "skipped", "ref_ns/iter", "fast_ns/iter",
              "speedup");
  for (int u = 0; u < kExecUnitCount; ++u) {
    const auto unit = static_cast<ExecUnit>(u);
    std::vector<double> unit_ref_times;
    std::vector<double> unit_fast_times;
    for (int r = 0; r < repeats; ++r) {
      const BatteryResult unit_ref = RunBattery(unit, battery_iterations, seed, false);
      const BatteryResult unit_fast = RunBattery(unit, battery_iterations, seed, true);
      battery_match = battery_match && unit_ref == unit_fast;
      unit_ref_times.push_back(unit_ref.seconds);
      unit_fast_times.push_back(unit_fast.seconds);
    }
    const double ref_ns = bench::Median(unit_ref_times) * 1e9 / battery_iterations;
    const double fast_ns = bench::Median(unit_fast_times) * 1e9 / battery_iterations;
    const bool skipped = BuildDefectiveCore(seed).CanSkipOps(unit);
    battery_ref_ns += ref_ns;
    battery_fast_ns += fast_ns;
    std::printf("%-24s %9s %14.1f %14.1f %9.2fx\n", ExecUnitName(unit), skipped ? "yes" : "no",
                ref_ns, fast_ns, ref_ns / fast_ns);
    battery_rows.push_back(bench::JsonObject()
                               .Str("unit", ExecUnitName(unit)).Bool("skipped", skipped)
                               .Num("reference_ns_per_iteration", ref_ns)
                               .Num("fast_ns_per_iteration", fast_ns)
                               .Num("speedup", ref_ns / fast_ns));
  }
  std::printf("%-24s %9s %14.1f %14.1f %9.2fx\n", "all units", "", battery_ref_ns,
              battery_fast_ns, battery_ref_ns / battery_fast_ns);
  std::printf("# results, counters and next draw bit-identical: %s\n",
              battery_match ? "yes" : "NO — BUG");

  // --- end_to_end ----------------------------------------------------------------------------
  std::vector<double> study_ref_times;
  std::vector<double> study_fast_times;
  StudyResult study_ref;
  StudyResult study_fast;
  for (int r = 0; r < repeats; ++r) {
    study_ref = RunStudy(machines, days, seed, /*fast_path=*/false);
    study_fast = RunStudy(machines, days, seed, /*fast_path=*/true);
    study_ref_times.push_back(study_ref.seconds);
    study_fast_times.push_back(study_fast.seconds);
  }
  const double study_ref_s = bench::Median(study_ref_times);
  const double study_fast_s = bench::Median(study_fast_times);
  const bool study_match = study_ref.report == study_fast.report;
  const double study_ref_units_per_sec =
      static_cast<double>(study_ref.report.work_units_executed) / study_ref_s;
  const double study_fast_units_per_sec =
      static_cast<double>(study_fast.report.work_units_executed) / study_fast_s;

  std::printf("# hotpath — end-to-end: %zu machines, %d days, 1 shard, median of %d\n",
              machines, days, repeats);
  std::printf("%-24s %12s %16s %10s\n", "config", "wall_s", "work_units/sec", "speedup");
  std::printf("%-24s %12.3f %16.0f %9.2fx\n", "reference path", study_ref_s,
              study_ref_units_per_sec, 1.0);
  std::printf("%-24s %12.3f %16.0f %9.2fx\n", "fast path", study_fast_s,
              study_fast_units_per_sec, study_ref_s / study_fast_s);
  std::printf("# study outputs bit-identical: %s\n", study_match ? "yes" : "NO — BUG");

  // --- tracing overhead ----------------------------------------------------------------------
  // The incident flight recorder must be invisible when idle: with StudyOptions.trace disabled
  // every emit site reduces to a null-pointer test. There is no uninstrumented binary to
  // compare against, so bound the cost from above instead: run the study with tracing off and
  // with a shadow recorder (enabled, sample_every=0 on every kind, so each Emit reaches the
  // recorder and returns at the sampling check without touching a ring). The shadow run pays
  // strictly more per emit site than the disabled run, so `shadow/off - 1` is a conservative
  // upper bound on the disabled-instrumentation overhead. Min-of-repeats on both sides keeps
  // scheduler noise from dominating the ratio.
  TraceOptions shadow_trace;
  shadow_trace.enabled = true;
  shadow_trace.sample_every.fill(0);
  std::vector<double> trace_off_times;
  std::vector<double> trace_shadow_times;
  for (int r = 0; r < repeats; ++r) {
    trace_off_times.push_back(RunStudy(machines, days, seed, /*fast_path=*/true).seconds);
    trace_shadow_times.push_back(
        RunStudy(machines, days, seed, /*fast_path=*/true, shadow_trace).seconds);
  }
  const double trace_off_s = bench::Min(trace_off_times);
  const double trace_shadow_s = bench::Min(trace_shadow_times);
  const double trace_overhead_pct = (trace_shadow_s / trace_off_s - 1.0) * 100.0;
  const double max_trace_overhead_pct = flags.GetDouble("max-trace-overhead-pct");
  const bool trace_overhead_ok =
      max_trace_overhead_pct <= 0.0 || trace_overhead_pct <= max_trace_overhead_pct;

  std::printf("# hotpath — tracing: flight-recorder overhead bound, min of %d\n", repeats);
  std::printf("%-24s %12s\n", "config", "wall_s");
  std::printf("%-24s %12.3f\n", "trace off", trace_off_s);
  std::printf("%-24s %12.3f\n", "trace shadow (emit-only)", trace_shadow_s);
  std::printf("# overhead bound: %+.2f%%", trace_overhead_pct);
  if (max_trace_overhead_pct > 0.0) {
    std::printf(" (budget %.2f%%): %s", max_trace_overhead_pct,
                trace_overhead_ok ? "ok" : "EXCEEDED");
  }
  std::printf("\n");

  const bench::JsonObject record =
      bench::Record("hotpath")
          .Int("repeats", repeats)
          .Obj("dispatch",
               bench::JsonObject()
                   .Int("ops", ops).Int("defects_on_core", 4)
                   .Num("reference_wall_seconds", ref_s).Num("fast_wall_seconds", fast_s)
                   .Num("reference_ops_per_sec", ref_ops_per_sec)
                   .Num("fast_ops_per_sec", fast_ops_per_sec).Num("speedup", ref_s / fast_s)
                   .Bool("counters_bit_identical", counters_match))
          .Obj("battery",
               bench::JsonObject()
                   .Int("iterations_per_unit", battery_iterations)
                   .Rows("units", battery_rows)
                   .Num("all_units_reference_ns_per_iteration", battery_ref_ns)
                   .Num("all_units_fast_ns_per_iteration", battery_fast_ns)
                   .Num("all_units_speedup", battery_ref_ns / battery_fast_ns)
                   .Bool("outputs_bit_identical", battery_match))
          .Obj("end_to_end",
               bench::JsonObject()
                   .Int("machines", machines).Int("days", days)
                   .Int("work_units", study_fast.report.work_units_executed)
                   .Num("reference_wall_seconds", study_ref_s)
                   .Num("fast_wall_seconds", study_fast_s)
                   .Num("reference_work_units_per_sec", study_ref_units_per_sec)
                   .Num("fast_work_units_per_sec", study_fast_units_per_sec)
                   .Num("speedup", study_ref_s / study_fast_s)
                   .Bool("outputs_bit_identical", study_match))
          .Obj("tracing", bench::JsonObject()
                              .Num("off_wall_seconds", trace_off_s)
                              .Num("shadow_wall_seconds", trace_shadow_s)
                              .Num("overhead_bound_pct", trace_overhead_pct)
                              .Num("budget_pct", max_trace_overhead_pct)
                              .Bool("within_budget", trace_overhead_ok));
  if (!bench::WriteRecord(flags.GetString("json"), record)) {
    return 1;
  }
  if (!(counters_match && battery_match && study_match)) {
    return 2;
  }
  return trace_overhead_ok ? 0 : 3;
}
