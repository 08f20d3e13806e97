// mercurialctl — command-line driver for the mercurial CEE study platform.
//
// Subcommands:
//   study        run a full fleet lifecycle study and print the report
//   trace        run a study with the incident flight recorder on and print the timeline
//   recover      inspect a journal file, rebuild the study it came from, verify the prefix
//   interrogate  plant a catalog defect on one core and extract a confession
//   screen       run the directed stress battery on a healthy or defective core
//   defects      list the defect catalog
//
// Examples:
//   mercurialctl study --machines=1000 --days=365 --multiplier=25
//   mercurialctl study --machines=200 --days=180 --trace --trace-core=42
//   mercurialctl study --days=180 --journal=study.journal --chaos-controller-crash-every=7
//   mercurialctl recover --journal=study.journal
//   mercurialctl trace --machines=200 --days=180 --audit --jsonl=trace.jsonl
//   mercurialctl interrogate --defect=self_inverting_aes --iterations=1024
//   mercurialctl screen --defect=copy_stuck_bit --sweep=true

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/wire.h"
#include "src/core/fleet_study.h"
#include "src/core/tradeoff.h"
#include "src/detect/confession.h"
#include "src/detect/quorum.h"
#include "src/durability/journal.h"
#include "src/mitigate/blast_radius.h"
#include "src/sim/defect_catalog.h"
#include "src/telemetry/trace.h"
#include "src/workload/stress.h"

using namespace mercurial;

namespace {

int CmdDefects() {
  std::printf("defect catalog (src/sim/defect_catalog.h):\n");
  for (DefectClass klass : AllDefectClasses()) {
    std::printf("  %s\n", DefectClassName(klass));
  }
  return 0;
}

StatusOr<DefectClass> FindDefectClass(const std::string& name) {
  for (DefectClass klass : AllDefectClasses()) {
    if (name == DefectClassName(klass)) {
      return klass;
    }
  }
  return NotFoundError("unknown defect class '" + name + "' (see `mercurialctl defects`)");
}

// --- incident timeline printing ---------------------------------------------------------------

void PrintTraceEvent(const TraceEvent& event) {
  std::printf("    day %8.3f  epoch %-4llu %-24s %-22s detail=%llu",
              static_cast<double>(event.time_seconds) / 86400.0,
              static_cast<unsigned long long>(event.epoch), TraceEventKindName(event.kind),
              TraceCauseName(event.cause), static_cast<unsigned long long>(event.detail));
  // Verdict annotations: quorum events pack the vote breakdown into detail; probation-end
  // events carry the clean windows served, with the cause naming the outcome.
  if (event.kind == TraceEventKind::kQuorumVerdict) {
    const QuorumVerdict verdict = UnpackQuorumDetail(event.detail);
    std::printf("  [votes %d-%d%s%s -> %s]", verdict.votes_for, verdict.votes_against,
                verdict.escalations > 0 ? ", escalated" : "",
                verdict.fell_back ? ", fell back to tester" : "",
                verdict.confessed ? "confessed" : "clean");
  } else if (event.kind == TraceEventKind::kProbationEnd) {
    const char* outcome = event.cause == TraceCause::kReinstated ? "reinstated" : "retired";
    std::printf("  [%llu clean window(s) -> %s]",
                static_cast<unsigned long long>(event.detail), outcome);
  } else if (event.kind == TraceEventKind::kProbationStart) {
    std::printf("  [%llu restricted unit(s)]", static_cast<unsigned long long>(event.detail));
  }
  std::printf("\n");
}

// Prints the flight-recorder summary plus a per-core incident timeline: the full cause chain
// (first record through conviction) for every convicted core — or just `core_filter` — then
// any post-conviction events (repair passes, retries, sheds). When the blast-radius audit ran,
// each core is annotated with the artifacts the provenance ledger attributes to it.
void PrintIncidentTimelines(const IncidentTrace& trace, const BlastRadiusLedger* ledger,
                            int64_t core_filter) {
  const TraceCounters& counters = trace.counters;
  std::printf("flight recorder: %zu events resident (emitted %llu, dropped %llu, "
              "sampled out %llu, shards %u)\n",
              trace.events.size(), static_cast<unsigned long long>(counters.events_emitted),
              static_cast<unsigned long long>(counters.events_dropped),
              static_cast<unsigned long long>(counters.events_sampled_out), trace.shards);

  const TraceQuery query(trace);
  std::vector<uint64_t> cores = query.ConvictedCores();
  if (core_filter >= 0) {
    cores.assign(1, static_cast<uint64_t>(core_filter));
  }
  if (cores.empty()) {
    std::printf("no convictions recorded — nothing to reconstruct\n");
    return;
  }
  std::printf("convicted cores: %zu\n", query.ConvictedCores().size());
  for (const uint64_t core : cores) {
    const std::vector<TraceEvent> chain = query.CauseChain(core);
    const std::vector<TraceEvent> timeline = query.CoreTimeline(core);
    if (timeline.empty()) {
      std::printf("\ncore %llu: no recorded events\n", static_cast<unsigned long long>(core));
      continue;
    }
    std::printf("\ncore %llu — cause chain (%zu events to conviction, %zu total)",
                static_cast<unsigned long long>(core), chain.size(), timeline.size());
    if (ledger != nullptr) {
      std::printf(", blast radius %llu artifacts / %llu corrupt",
                  static_cast<unsigned long long>(ledger->ArtifactsForCore(core)),
                  static_cast<unsigned long long>(ledger->CorruptForCore(core)));
    }
    std::printf(":\n");
    if (chain.empty()) {
      // Not convicted (possible with --trace-core / --core): show the raw timeline instead.
      for (const TraceEvent& event : timeline) {
        PrintTraceEvent(event);
      }
      continue;
    }
    for (const TraceEvent& event : chain) {
      PrintTraceEvent(event);
    }
    // The cause chain is a prefix of the core's timeline; anything past it is post-conviction
    // activity (repair passes, retries, sheds).
    if (!chain.empty() && timeline.size() > chain.size()) {
      std::printf("  after conviction:\n");
      for (size_t i = chain.size(); i < timeline.size(); ++i) {
        PrintTraceEvent(timeline[i]);
      }
    }
  }
}

// Writes the JSONL / CSV export artifacts when the corresponding path flag is nonempty.
// Returns false (after printing to stderr) if a file cannot be opened.
bool ExportTraceArtifacts(const IncidentTrace& trace, const std::string& jsonl_path,
                          const std::string& csv_path) {
  for (const auto& [path, body] :
       {std::pair<std::string, std::string>{jsonl_path, jsonl_path.empty()
                                                            ? std::string()
                                                            : TraceToJsonl(trace)},
        std::pair<std::string, std::string>{csv_path,
                                            csv_path.empty() ? std::string()
                                                             : TraceToCsv(trace)}}) {
    if (path.empty()) {
      continue;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return false;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), body.size());
  }
  return true;
}

// Shared between `study` and `recover`: the full study flag surface. `recover` re-parses the
// argv recorded in the journal manifest through these same definitions, so the rebuilt study
// is flag-for-flag the invocation that wrote the journal.
void DefineStudyFlags(FlagSet& flags) {
  flags.DefineInt("machines", 500, "fleet size in machines");
  flags.DefineInt("days", 365, "simulated study duration");
  flags.DefineInt("seed", 42, "master seed (fixes the whole study)");
  flags.DefineDouble("multiplier", 25.0, "mercurial-core rate multiplier over product rates");
  flags.DefineInt("work-units", 20, "work units per busy core-day");
  flags.DefineInt("screening-period", 45, "offline screening cadence in days (0 = disabled)");
  flags.DefineBool("screen-adaptive", false,
                   "risk-adaptive offline screening: score due cores (report evidence, "
                   "screen-fail recidivism, probation, age, operating-point stress, coverage "
                   "gaps) and spend the ops budget riskiest-first");
  flags.DefineInt("screen-budget-ops-per-day", 0,
                  "adaptive screening budget in battery micro-ops per day (0 = unmetered)");
  flags.DefineDouble("screen-risk-min-period-days", 10.0,
                     "adaptive cadence floor for the riskiest cores");
  flags.DefineDouble("screen-risk-max-period-days", 60.0,
                     "adaptive cadence ceiling for pristine cores");
  flags.DefineDouble("screen-risk-warm", 1.0,
                     "risk at or above this doubles the battery depth");
  flags.DefineDouble("screen-risk-hot", 3.0,
                     "risk at or above this quadruples the battery depth");
  flags.DefineBool("burn-in", false, "screen every core once before production");
  flags.DefineInt("threads", 1, "worker threads for the sharded parallel engine");
  flags.DefineInt("shards", 0,
                  "random-stream shards (0 = auto: 1 when --threads=1, else 8x threads); "
                  "part of the experiment identity — results depend on shards, never threads; "
                  "1 is one shard of the same engine, not a separate serial path");
  flags.DefineBool("sparse-engine", true,
                   "due-wheel sparse tick engine (O(active work) per tick); disable to run "
                   "the dense reference oracle — results are bit-identical either way");
  flags.DefineBool("fig1", false, "also print the weekly incident-rate series as CSV");
  flags.DefineInt("quarantine-queue", 0,
                  "max suspects resident in the quarantine pipeline (0 = unbounded)");
  flags.DefineInt("quarantine-retries", 0,
                  "extra interrogation attempts for non-confessing suspects");
  flags.DefineDouble("quarantine-backoff-days", 2.0, "base retry backoff in days");
  flags.DefineDouble("quarantine-budget", 1.0,
                     "max fraction of cores draining+quarantined at once (1.0 = no guardrail)");
  flags.DefineDouble("chaos-drop", 0.0, "P(suspect report lost in flight)");
  flags.DefineDouble("chaos-dup", 0.0, "P(suspect report delivered twice)");
  flags.DefineDouble("chaos-delay", 0.0, "P(suspect report delivered late)");
  flags.DefineDouble("chaos-delay-days", 2.0, "mean delivery delay for delayed reports");
  flags.DefineDouble("chaos-abort", 0.0, "P(interrogation battery preempted mid-run)");
  flags.DefineDouble("chaos-restarts", 0.0,
                     "machine crash-restart rate per machine-day (resets in-flight quarantines)");
  flags.DefineBool("quorum", false,
                   "judge each interrogation battery by a quorum of witness cores");
  flags.DefineInt("quorum-witnesses", 3, "initial quorum size");
  flags.DefineInt("quorum-max-escalations", 2,
                  "wider quorums (2W+1) convened after split votes before falling back");
  flags.DefineDouble("quorum-witness-error", 0.25,
                     "P(a mercurial witness with an active defect misreads the battery)");
  flags.DefineDouble("quorum-strong-agreement", 1.0,
                     "agreement below this marks the conviction's evidence weak (1.0 = only "
                     "unanimity is strong)");
  flags.DefineBool("probation", false,
                   "weak-evidence convictions enter restricted service + shadow screening "
                   "instead of terminal retirement");
  flags.DefineDouble("probation-window-days", 7.0, "shadow-screen cadence in days");
  flags.DefineInt("probation-clean-windows", 3, "clean windows before reinstatement");
  flags.DefineInt("probation-weak-attempts", 0,
                  "confessions needing more interrogation attempts than this are weak "
                  "evidence (0 = off)");
  flags.DefineDouble("chaos-lying-witness", 0.0,
                     "P(a cast witness vote — or the lone tester's verdict — is flipped)");
  flags.DefineDouble("chaos-witness-crash", 0.0, "P(a witness crashes mid-vote, casting none)");
  flags.DefineDouble("chaos-probation-suppress", 0.0,
                     "P(a probation shadow-screen confession is swallowed in flight)");
  flags.DefineBool("audit", false,
                   "blast-radius auditing + retroactive repair after conviction");
  flags.DefineInt("audit-repair-budget", 4096,
                  "max artifacts re-verified/re-executed per tick");
  flags.DefineInt("audit-retries", 3, "repair passes per suspect epoch before abandoning");
  flags.DefineDouble("audit-backoff-days", 1.0, "base repair retry backoff in days");
  flags.DefineDouble("audit-lookback-days", 180.0,
                     "max suspect window behind a conviction, in days");
  flags.DefineDouble("audit-onset-margin-days", 14.0,
                     "margin before the first signal in the defect-onset estimate, in days");
  flags.DefineInt("audit-backlog", 1 << 20,
                  "max queued suspect artifacts before lowest-risk epochs are shed");
  flags.DefineDouble("chaos-repair-fail", 0.0, "P(repair re-verification misses a corruption)");
  flags.DefineDouble("chaos-repair-defective", 0.0,
                     "P(repair pass forced onto a defective executor)");
  flags.DefineDouble("chaos-repair-partial", 0.0, "P(repair pass preempted mid-epoch)");
  flags.DefineBool("trace", false,
                   "record the incident flight recorder and print per-core timelines");
  flags.DefineInt("trace-ring-capacity", 1 << 16, "flight-recorder slots per shard ring");
  flags.DefineInt("trace-core", -1,
                  "print only this core's timeline (-1 = every convicted core)");
  flags.DefineString("trace-jsonl", "", "export the full trace as JSONL to this path");
  flags.DefineString("trace-csv", "", "export the full trace as CSV to this path");
  flags.DefineBool("durable", false,
                   "arm the write-ahead journal + snapshots for the controller state "
                   "(in memory; --journal adds a write-through file)");
  flags.DefineString("journal", "",
                     "write-through journal file (implies --durable); replay it with "
                     "`mercurialctl recover --journal=PATH`");
  flags.DefineInt("snapshot-every", 64,
                  "ticks between full journal snapshots (0 = initial snapshot only)");
  flags.DefineInt("chaos-controller-crash-every", 0,
                  "kill + recover the controller from the journal every K ticks "
                  "(0 = off; implies --durable)");
  flags.DefineDouble("chaos-controller-crash", 0.0,
                     "controller crash rate per day, at chaos-chosen ticks (implies --durable)");
  flags.DefineDouble("chaos-journal-torn-tail", 0.0,
                     "P(a controller crash also tears bytes off the journal tail)");
  flags.DefineDouble("chaos-journal-bit-flip", 0.0,
                     "P(a controller crash also flips one bit in the journal tail)");
}

// An integer flag and the least value it accepts.
struct FlagFloor {
  const char* name;
  int64_t min;
};

// The one rule for integer counts, checked before a flag is cast into an option: a count is
// >= 0 (iterations and attempts >= 1, a fleet >= 1 machine), because a negative one wraps to a
// huge unsigned value, and a fleet without machines or a negative duration aborts inside the
// study.
Status CheckFlagFloors(const FlagSet& flags, std::initializer_list<FlagFloor> floors) {
  for (const FlagFloor& floor : floors) {
    if (flags.GetInt(floor.name) < floor.min) {
      return InvalidArgumentError(std::string("--") + floor.name + " must be >= " +
                                  std::to_string(floor.min));
    }
  }
  return Status::Ok();
}

// Prints a rejected flag's status and returns the exit code for it.
int RejectFlags(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

// The shard count for a --shards value: 0 (auto) is one shard for one thread, otherwise 8
// shards per thread so the dynamic scheduler can balance unevenly-loaded shards.
int ResolveShards(int64_t shards, int threads) {
  if (shards > 0) {
    return static_cast<int>(shards);
  }
  return threads <= 1 ? 1 : 8 * threads;
}

// The fleet-shape flags `study`, `recover` and `trace` all parse.
Status ValidateFleetFlags(const FlagSet& flags) {
  if (Status bad = CheckFlagFloors(flags, {{"machines", 1}, {"days", 0}}); !bad.ok()) {
    return bad;
  }
  const double multiplier = flags.GetDouble("multiplier");
  if (!std::isfinite(multiplier) || multiplier < 0.0) {
    return InvalidArgumentError("--multiplier must be a finite number >= 0");
  }
  return Status::Ok();
}

// Builds and validates StudyOptions from a parsed study flag set.
Status BuildStudyOptions(const FlagSet& flags, StudyOptions* out) {
  if (Status bad_fleet = ValidateFleetFlags(flags); !bad_fleet.ok()) {
    return bad_fleet;
  }
  if (Status bad_count = CheckFlagFloors(
          flags, {{"work-units", 0}, {"screening-period", 0}, {"screen-budget-ops-per-day", 0},
                  {"quarantine-queue", 0}, {"audit-repair-budget", 0}, {"audit-backlog", 0},
                  {"trace-ring-capacity", 0}, {"snapshot-every", 0}});
      !bad_count.ok()) {
    return bad_count;
  }
  StudyOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.fleet.machine_count = static_cast<size_t>(flags.GetInt("machines"));
  options.fleet.mercurial_rate_multiplier = flags.GetDouble("multiplier");
  options.duration = SimTime::Days(flags.GetInt("days"));
  options.work_units_per_core_day = static_cast<uint64_t>(flags.GetInt("work-units"));
  options.workload.payload_bytes = 256;
  options.burn_in = flags.GetBool("burn-in");
  options.threads = static_cast<int>(flags.GetInt("threads"));
  options.shards = ResolveShards(flags.GetInt("shards"), options.threads);
  options.sparse_engine = flags.GetBool("sparse-engine");
  const int64_t period = flags.GetInt("screening-period");
  options.screening.offline_enabled = period > 0;
  if (period > 0) {
    options.screening.offline_period = SimTime::Days(period);
  }
  options.screening.adaptive = flags.GetBool("screen-adaptive");
  options.screening.budget_ops_per_day =
      static_cast<uint64_t>(flags.GetInt("screen-budget-ops-per-day"));
  options.screening.adaptive_min_period = SimTime::Seconds(
      static_cast<int64_t>(flags.GetDouble("screen-risk-min-period-days") * 86400.0));
  options.screening.adaptive_max_period = SimTime::Seconds(
      static_cast<int64_t>(flags.GetDouble("screen-risk-max-period-days") * 86400.0));
  options.screening.risk_warm = flags.GetDouble("screen-risk-warm");
  options.screening.risk_hot = flags.GetDouble("screen-risk-hot");
  if (Status bad_screening = ValidateScreeningOptions(options.screening); !bad_screening.ok()) {
    return bad_screening;
  }
  options.control_plane.max_pending = static_cast<size_t>(flags.GetInt("quarantine-queue"));
  options.control_plane.max_retries = static_cast<int>(flags.GetInt("quarantine-retries"));
  options.control_plane.retry_backoff = SimTime::Seconds(
      static_cast<int64_t>(flags.GetDouble("quarantine-backoff-days") * 86400.0));
  options.control_plane.quarantine_budget_fraction = flags.GetDouble("quarantine-budget");
  options.control_plane.chaos.drop_report = flags.GetDouble("chaos-drop");
  options.control_plane.chaos.duplicate_report = flags.GetDouble("chaos-dup");
  options.control_plane.chaos.delay_report = flags.GetDouble("chaos-delay");
  options.control_plane.chaos.report_delay_mean = SimTime::Seconds(
      static_cast<int64_t>(flags.GetDouble("chaos-delay-days") * 86400.0));
  options.control_plane.chaos.abort_interrogation = flags.GetDouble("chaos-abort");
  options.control_plane.chaos.machine_restart_per_day = flags.GetDouble("chaos-restarts");
  options.control_plane.quorum.enabled = flags.GetBool("quorum");
  options.control_plane.quorum.witnesses = static_cast<int>(flags.GetInt("quorum-witnesses"));
  options.control_plane.quorum.max_escalations =
      static_cast<int>(flags.GetInt("quorum-max-escalations"));
  options.control_plane.quorum.witness_error_rate = flags.GetDouble("quorum-witness-error");
  options.control_plane.quorum.strong_agreement = flags.GetDouble("quorum-strong-agreement");
  options.control_plane.probation.enabled = flags.GetBool("probation");
  options.control_plane.probation.window = SimTime::Seconds(
      static_cast<int64_t>(flags.GetDouble("probation-window-days") * 86400.0));
  options.control_plane.probation.clean_windows_to_reinstate =
      static_cast<int>(flags.GetInt("probation-clean-windows"));
  options.control_plane.probation.weak_after_attempts =
      static_cast<int>(flags.GetInt("probation-weak-attempts"));
  options.control_plane.chaos.lying_witness = flags.GetDouble("chaos-lying-witness");
  options.control_plane.chaos.witness_crash = flags.GetDouble("chaos-witness-crash");
  options.control_plane.chaos.probation_suppress = flags.GetDouble("chaos-probation-suppress");
  options.audit.enabled = flags.GetBool("audit");
  options.audit.repair_budget_per_tick =
      static_cast<uint64_t>(flags.GetInt("audit-repair-budget"));
  options.audit.max_attempts = static_cast<int>(flags.GetInt("audit-retries"));
  options.audit.retry_backoff = SimTime::Seconds(
      static_cast<int64_t>(flags.GetDouble("audit-backoff-days") * 86400.0));
  options.audit.max_lookback = SimTime::Seconds(
      static_cast<int64_t>(flags.GetDouble("audit-lookback-days") * 86400.0));
  options.audit.onset_margin = SimTime::Seconds(
      static_cast<int64_t>(flags.GetDouble("audit-onset-margin-days") * 86400.0));
  options.audit.max_backlog_artifacts = static_cast<uint64_t>(flags.GetInt("audit-backlog"));
  options.control_plane.chaos.repair_fail_reverify = flags.GetDouble("chaos-repair-fail");
  options.control_plane.chaos.repair_on_defective = flags.GetDouble("chaos-repair-defective");
  options.control_plane.chaos.repair_partial = flags.GetDouble("chaos-repair-partial");
  options.trace.enabled = flags.GetBool("trace");
  options.trace.ring_capacity = static_cast<size_t>(flags.GetInt("trace-ring-capacity"));
  options.control_plane.chaos.controller_crash_per_day =
      flags.GetDouble("chaos-controller-crash");
  options.control_plane.chaos.controller_crash_every_ticks =
      static_cast<int>(flags.GetInt("chaos-controller-crash-every"));
  options.control_plane.chaos.journal_torn_tail = flags.GetDouble("chaos-journal-torn-tail");
  options.control_plane.chaos.journal_bit_flip = flags.GetDouble("chaos-journal-bit-flip");
  options.durability.snapshot_every = static_cast<uint64_t>(flags.GetInt("snapshot-every"));
  options.durability.journal_path = flags.GetString("journal");
  options.durability.enabled = flags.GetBool("durable") ||
                               !options.durability.journal_path.empty() ||
                               options.control_plane.chaos.controller_enabled();
  if (Status invalid = options.control_plane.Validate(); !invalid.ok()) {
    return invalid;
  }
  if (Status bad_audit = options.audit.Validate(); !bad_audit.ok()) {
    return bad_audit;
  }
  if (Status bad_trace = options.trace.Validate(); !bad_trace.ok()) {
    return bad_trace;
  }
  *out = std::move(options);
  return Status::Ok();
}

// The journal manifest is the study's own argv — [u32 count][u32 len + bytes]* — enough for
// `recover` to rebuild and deterministically re-run the exact invocation that wrote it.
std::vector<uint8_t> EncodeArgvManifest(int argc, const char* const* argv) {
  std::vector<uint8_t> bytes;
  ByteWriter w(bytes);
  w.PutU32(static_cast<uint32_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const size_t len = std::strlen(argv[i]);
    w.PutU32(static_cast<uint32_t>(len));
    bytes.insert(bytes.end(), argv[i], argv[i] + len);
  }
  return bytes;
}

Status DecodeArgvManifest(const std::vector<uint8_t>& bytes, std::vector<std::string>* out) {
  ByteReader r(bytes.data(), bytes.size());
  uint32_t count = 0;
  if (Status s = r.GetU32(&count); !s.ok()) {
    return s;
  }
  out->clear();
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (Status s = r.GetU32(&len); !s.ok()) {
      return s;
    }
    ByteReader arg;
    if (!r.Take(len, &arg).ok()) {
      return DataLossError("manifest argv entry exceeds the payload");
    }
    out->emplace_back(reinterpret_cast<const char*>(arg.data()), len);
  }
  return r.ExpectEnd();
}

void PrintDurabilitySection(const DurabilityStats& d) {
  std::printf("\ndurability (write-ahead journal):\n");
  std::printf("  journal                %llu frames / %llu bytes (%llu snapshots, "
              "%llu tick frames)\n",
              static_cast<unsigned long long>(d.frames_written),
              static_cast<unsigned long long>(d.bytes_written),
              static_cast<unsigned long long>(d.snapshots_written),
              static_cast<unsigned long long>(d.tick_frames_written));
  std::printf("  controller crashes     %llu -> %llu recoveries (%llu exact, %llu prefix)\n",
              static_cast<unsigned long long>(d.controller_crashes),
              static_cast<unsigned long long>(d.recoveries),
              static_cast<unsigned long long>(d.exact_recoveries),
              static_cast<unsigned long long>(d.prefix_recoveries));
  std::printf("  frames replayed/lost   %llu/%llu (torn tails %llu, corrupt frames %llu)\n",
              static_cast<unsigned long long>(d.frames_replayed),
              static_cast<unsigned long long>(d.frames_truncated),
              static_cast<unsigned long long>(d.torn_tail_truncations),
              static_cast<unsigned long long>(d.corrupt_frames_rejected));
  const uint64_t reconciled = d.reconcile_released_unknown + d.reconcile_reinstated_unknown +
                              d.reconcile_dropped_pending + d.reconcile_dropped_probation;
  if (reconciled > 0) {
    std::printf("  fleet reconciliation   released=%llu reinstated=%llu dropped "
                "pending=%llu probation=%llu\n",
                static_cast<unsigned long long>(d.reconcile_released_unknown),
                static_cast<unsigned long long>(d.reconcile_reinstated_unknown),
                static_cast<unsigned long long>(d.reconcile_dropped_pending),
                static_cast<unsigned long long>(d.reconcile_dropped_probation));
  }
}

int CmdStudy(int argc, const char* const* argv) {
  FlagSet flags;
  DefineStudyFlags(flags);
  if (!flags.ParseOrUsage(argc, argv, 2)) {
    return 1;
  }
  StudyOptions options;
  if (Status bad = BuildStudyOptions(flags, &options); !bad.ok()) {
    return RejectFlags(bad);
  }
  if (options.durability.enabled) {
    options.durability.manifest = EncodeArgvManifest(argc, argv);
  }

  FleetStudy study(options);
  std::printf("fleet: %zu machines / %zu cores / %zu mercurial cores planted\n",
              study.fleet().machine_count(), study.fleet().core_count(),
              study.fleet().mercurial_cores().size());
  const StudyReport report = study.Run();

  std::printf("\nsymptoms over %llu work units:\n",
              static_cast<unsigned long long>(report.work_units_executed));
  for (int s = 1; s < kSymptomCount; ++s) {
    std::printf("  %-22s %llu\n", SymptomName(static_cast<Symptom>(s)),
                static_cast<unsigned long long>(report.symptom_counts[s]));
  }
  std::printf("\ndetection:\n");
  std::printf("  screen failures        %llu\n",
              static_cast<unsigned long long>(report.screen_failures));
  std::printf("  suspects processed     %llu\n",
              static_cast<unsigned long long>(report.quarantine.suspects_processed));
  std::printf("  retirements (TP/FP)    %llu (%llu/%llu)\n",
              static_cast<unsigned long long>(report.quarantine.retirements),
              static_cast<unsigned long long>(report.quarantine.true_positive_retirements),
              static_cast<unsigned long long>(report.quarantine.false_positive_retirements));
  std::printf("  mercurial caught       %llu of %zu\n",
              static_cast<unsigned long long>(report.mercurial_retired),
              report.true_mercurial_cores);
  std::printf("  detection latency p50  %.0f days\n",
              report.detection_latency_days.Quantile(0.5));
  std::printf("  silent corruptions     %llu\n",
              static_cast<unsigned long long>(report.silent_corruptions));

  if (options.screening.adaptive) {
    std::printf("\nrisk-adaptive screening:\n");
    std::printf("  screening ops          %llu (budget %llu/day, 0 = unmetered)\n",
                static_cast<unsigned long long>(report.screening_ops),
                static_cast<unsigned long long>(options.screening.budget_ops_per_day));
    std::printf("  screens by tier        cold=%llu warm=%llu hot=%llu\n",
                static_cast<unsigned long long>(report.scheduler.screen_drains_by_tier[0]),
                static_cast<unsigned long long>(report.scheduler.screen_drains_by_tier[1]),
                static_cast<unsigned long long>(report.scheduler.screen_drains_by_tier[2]));
    std::printf("  tier migration cost    %.0f/%.0f/%.0f core-seconds\n",
                report.scheduler.screen_migration_cost_by_tier[0],
                report.scheduler.screen_migration_cost_by_tier[1],
                report.scheduler.screen_migration_cost_by_tier[2]);
  }

  const ControlPlaneStats& plane = report.control_plane;
  if (plane.suspects_shed > 0 || plane.retries_scheduled > 0 || plane.drain_escalations > 0 ||
      plane.guardrail_activations > 0 || plane.restarts_reset > 0 ||
      options.control_plane.chaos.enabled()) {
    std::printf("\ncontrol plane:\n");
    std::printf("  admitted/shed          %llu/%llu (queue peak %llu)\n",
                static_cast<unsigned long long>(plane.suspects_admitted),
                static_cast<unsigned long long>(plane.suspects_shed),
                static_cast<unsigned long long>(plane.queue_peak));
    std::printf("  retries scheduled      %llu\n",
                static_cast<unsigned long long>(plane.retries_scheduled));
    std::printf("  drain escalations      %llu\n",
                static_cast<unsigned long long>(plane.drain_escalations));
    std::printf("  guardrail releases     %llu (activations %llu, screens deferred %llu)\n",
                static_cast<unsigned long long>(plane.guardrail_releases),
                static_cast<unsigned long long>(plane.guardrail_activations),
                static_cast<unsigned long long>(plane.screening_deferrals));
    std::printf("  stranded (pending)     %.0f core-days (peak %llu cores)\n",
                plane.pending_isolation_core_seconds / 86400.0,
                static_cast<unsigned long long>(plane.peak_pending_isolation));
    std::printf("  chaos                  drop=%llu dup=%llu delay=%llu abort=%llu restart=%llu "
                "(quarantines reset %llu)\n",
                static_cast<unsigned long long>(plane.chaos.reports_dropped),
                static_cast<unsigned long long>(plane.chaos.reports_duplicated),
                static_cast<unsigned long long>(plane.chaos.reports_delayed),
                static_cast<unsigned long long>(plane.chaos.interrogations_aborted),
                static_cast<unsigned long long>(plane.chaos.machine_restarts),
                static_cast<unsigned long long>(plane.restarts_reset));
  }

  if (options.control_plane.quorum.enabled || options.control_plane.probation.enabled) {
    std::printf("\nverdicts (quorum/probation):\n");
    if (options.control_plane.quorum.enabled) {
      const QuorumStats& quorum = plane.quorum;
      std::printf("  quorum judgments       %llu (%llu votes cast)\n",
                  static_cast<unsigned long long>(quorum.judgments),
                  static_cast<unsigned long long>(quorum.votes_cast));
      std::printf("  splits -> escalations  %llu -> %llu (fallbacks %llu)\n",
                  static_cast<unsigned long long>(quorum.splits),
                  static_cast<unsigned long long>(quorum.escalations),
                  static_cast<unsigned long long>(quorum.fallbacks));
      std::printf("  tester overridden      %llu\n",
                  static_cast<unsigned long long>(quorum.overrides));
    }
    if (options.control_plane.probation.enabled) {
      std::printf("  probation entries      %llu (escalated %llu, reinstated %llu, "
                  "open at end %llu)\n",
                  static_cast<unsigned long long>(report.quarantine.probation_entries),
                  static_cast<unsigned long long>(report.quarantine.probation_escalations),
                  static_cast<unsigned long long>(report.quarantine.reinstatements),
                  static_cast<unsigned long long>(plane.probation_pending_at_end));
      std::printf("  restricted work        %llu unit(s) declined; %.0f probation core-days\n",
                  static_cast<unsigned long long>(report.probation_work_declined),
                  report.scheduler.probation_core_seconds / 86400.0);
    }
    if (options.control_plane.chaos.verdict_enabled()) {
      std::printf("  verdict chaos          lied=%llu crashed=%llu suppressed=%llu\n",
                  static_cast<unsigned long long>(plane.chaos.witnesses_lied),
                  static_cast<unsigned long long>(plane.chaos.witnesses_crashed),
                  static_cast<unsigned long long>(plane.chaos.probation_signals_suppressed));
    }
  }

  if (report.audit_enabled) {
    const RepairStats& repair = report.repair;
    std::printf("\nblast-radius audit:\n");
    std::printf("  artifacts tagged       %llu (%llu corrupt at rest)\n",
                static_cast<unsigned long long>(report.artifacts_tagged),
                static_cast<unsigned long long>(report.corruptions_tagged));
    std::printf("  convictions -> suspects %llu -> %llu epochs / %llu artifacts\n",
                static_cast<unsigned long long>(repair.convictions),
                static_cast<unsigned long long>(repair.suspect_epochs),
                static_cast<unsigned long long>(repair.suspect_artifacts));
    std::printf("  reverified/reexecuted  %llu/%llu (backlog peak %llu)\n",
                static_cast<unsigned long long>(repair.artifacts_reverified),
                static_cast<unsigned long long>(repair.artifacts_reexecuted),
                static_cast<unsigned long long>(repair.backlog_peak));
    std::printf("  retries/abandoned/shed %llu/%llu/%llu epochs\n",
                static_cast<unsigned long long>(repair.retries_scheduled),
                static_cast<unsigned long long>(repair.tasks_abandoned),
                static_cast<unsigned long long>(repair.epochs_shed));
    std::printf("  reinstate-cancelled    %llu epochs / %llu artifacts\n",
                static_cast<unsigned long long>(repair.reinstated_epochs_cancelled),
                static_cast<unsigned long long>(repair.reinstated_artifacts_cancelled));
    std::printf("  corruption disposition repaired=%llu shed=%llu at-rest=%llu "
                "(missed=%llu abandoned=%llu)\n",
                static_cast<unsigned long long>(repair.corruptions_repaired),
                static_cast<unsigned long long>(repair.corruptions_shed),
                static_cast<unsigned long long>(repair.corruptions_still_at_rest),
                static_cast<unsigned long long>(repair.corruptions_missed),
                static_cast<unsigned long long>(repair.corruptions_abandoned));
    if (options.control_plane.chaos.repair_enabled()) {
      std::printf("  repair chaos           reverify-miss=%llu defective=%llu partial=%llu\n",
                  static_cast<unsigned long long>(repair.chaos.reverify_misses),
                  static_cast<unsigned long long>(repair.chaos.defective_repairs),
                  static_cast<unsigned long long>(repair.chaos.partial_repairs));
    }
  }

  if (options.durability.enabled) {
    PrintDurabilitySection(report.durability);
    if (!options.durability.journal_path.empty()) {
      std::printf("  journal file           %s\n", options.durability.journal_path.c_str());
    }
  }

  const CostBreakdown bill = EvaluateStudyCost(report, CostModel{});
  std::printf("\ncost (default model): corruption=%.0f disruption=%.0f screening=%.1f "
              "capacity=%.0f total=%.0f\n",
              bill.corruption, bill.disruption, bill.screening, bill.capacity, bill.total());

  if (options.trace.enabled) {
    std::printf("\n");
    PrintIncidentTimelines(report.trace, report.audit_enabled ? &study.ledger() : nullptr,
                           flags.GetInt("trace-core"));
    if (!ExportTraceArtifacts(report.trace, flags.GetString("trace-jsonl"),
                              flags.GetString("trace-csv"))) {
      return 1;
    }
  }

  if (flags.GetBool("fig1")) {
    std::printf("\nweek,user_rate,auto_rate\n");
    for (size_t w = 0; w < report.weekly_user_rate.size(); ++w) {
      std::printf("%zu,%g,%g\n", w, report.weekly_user_rate[w], report.weekly_auto_rate[w]);
    }
  }
  return 0;
}

// `mercurialctl recover`: the journal's read side. Reads a journal file written by
// `study --journal=PATH`, validates its framing (every CRC), recovers the manifest argv,
// rebuilds the exact study invocation recorded there, deterministically re-runs it with an
// in-memory journal, and verifies the on-disk durable prefix byte-for-byte against the
// re-run. A torn or corrupt tail bounds the durable prefix; an image that proves no durable
// state at all is refused loudly with DATA_LOSS.
int CmdRecover(int argc, const char* const* argv) {
  FlagSet flags;
  flags.DefineString("journal", "", "journal file written by `mercurialctl study --journal`");
  flags.DefineBool("run", true,
                   "re-run the recovered invocation and verify the journal prefix against it");
  if (!flags.ParseOrUsage(argc, argv, 2)) {
    return 1;
  }
  const std::string path = flags.GetString("journal");
  if (path.empty()) {
    std::fprintf(stderr, "--journal is required\n");
    return 1;
  }

  std::vector<uint8_t> image;
  {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::rewind(file);
    image.resize(size > 0 ? static_cast<size_t>(size) : 0);
    if (!image.empty() && std::fread(image.data(), 1, image.size(), file) != image.size()) {
      std::fprintf(stderr, "short read from %s\n", path.c_str());
      std::fclose(file);
      return 1;
    }
    std::fclose(file);
  }

  const StatusOr<JournalImageInfo> inspected = InspectJournalImage(image);
  if (!inspected.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), inspected.status().ToString().c_str());
    return 1;
  }
  const JournalImageInfo& info = *inspected;
  std::printf("journal %s: %zu bytes\n", path.c_str(), image.size());
  std::printf("  durable prefix         %zu bytes / %llu frames (%llu snapshots, "
              "%llu tick frames)\n",
              info.durable_prefix_bytes, static_cast<unsigned long long>(info.frames),
              static_cast<unsigned long long>(info.snapshots),
              static_cast<unsigned long long>(info.tick_frames));
  std::printf("  durable tick           %llu (latest snapshot at tick %llu)\n",
              static_cast<unsigned long long>(info.durable_tick),
              static_cast<unsigned long long>(info.snapshot_tick));
  if (info.durable_prefix_bytes < image.size()) {
    std::printf("  untrusted tail         %zu bytes rejected (%s)\n",
                image.size() - info.durable_prefix_bytes,
                info.corrupt_frame ? "corrupt frame" : "torn tail");
  }

  std::vector<std::string> manifest_argv;
  if (Status bad = DecodeArgvManifest(info.manifest, &manifest_argv); !bad.ok()) {
    std::fprintf(stderr, "manifest does not decode as an argv record: %s\n",
                 bad.ToString().c_str());
    return 1;
  }
  std::printf("  recovered invocation  ");
  for (const std::string& arg : manifest_argv) {
    std::printf(" %s", arg.c_str());
  }
  std::printf("\n");
  if (!flags.GetBool("run")) {
    return 0;
  }

  // Re-parse the recorded argv through the same flag surface `study` uses, then re-run with
  // an in-memory journal (never clobbering the image under verification) but the exact
  // manifest bytes — the re-run's journal is byte-for-byte the one the original run wrote.
  std::vector<const char*> raw;
  raw.reserve(manifest_argv.size());
  for (const std::string& arg : manifest_argv) {
    raw.push_back(arg.c_str());
  }
  FlagSet study_flags;
  DefineStudyFlags(study_flags);
  if (Status bad = study_flags.Parse(static_cast<int>(raw.size()), raw.data(), 2);
      !bad.ok()) {
    std::fprintf(stderr, "recovered invocation does not parse: %s\n", bad.ToString().c_str());
    return 1;
  }
  StudyOptions options;
  if (Status bad = BuildStudyOptions(study_flags, &options); !bad.ok()) {
    return RejectFlags(bad);
  }
  options.durability.enabled = true;
  options.durability.journal_path.clear();
  options.durability.manifest = info.manifest;

  FleetStudy study(options);
  std::printf("\nre-running: %zu machines / %zu cores, seed %llu\n",
              study.fleet().machine_count(), study.fleet().core_count(),
              static_cast<unsigned long long>(options.seed));
  const StudyReport report = study.Run();
  PrintDurabilitySection(report.durability);

  const std::vector<uint8_t> rerun = study.durability()->buffer();
  const bool prefix_matches =
      info.durable_prefix_bytes <= rerun.size() &&
      std::equal(image.begin(),
                 image.begin() + static_cast<std::ptrdiff_t>(info.durable_prefix_bytes),
                 rerun.begin());
  if (!prefix_matches) {
    size_t first_diff = 0;
    const size_t limit = std::min(info.durable_prefix_bytes, rerun.size());
    while (first_diff < limit && image[first_diff] == rerun[first_diff]) {
      ++first_diff;
    }
    std::fprintf(stderr,
                 "\njournal prefix verification FAILED: diverges from the re-run at byte %zu "
                 "of %zu — the image may predate a later journal truncation, or the recorded "
                 "flags no longer reproduce it\n",
                 first_diff, info.durable_prefix_bytes);
    return 2;
  }
  std::printf("\njournal prefix verified: %zu bytes bit-identical to the deterministic "
              "re-run%s\n",
              info.durable_prefix_bytes,
              info.durable_prefix_bytes == rerun.size() ? " (complete journal)" : "");
  std::printf("study replayed: %llu work units, %llu retirements (%llu mercurial), "
              "%llu controller crashes survived\n",
              static_cast<unsigned long long>(report.work_units_executed),
              static_cast<unsigned long long>(report.quarantine.retirements),
              static_cast<unsigned long long>(report.mercurial_retired),
              static_cast<unsigned long long>(report.durability.controller_crashes));
  return 0;
}

// `mercurialctl trace`: the forensic front door. Runs a study with the flight recorder on and
// prints only the incident reconstruction — per-core cause chains for every conviction — plus
// optional JSONL/CSV artifacts and a time-window slice. The full study report stays available
// via `mercurialctl study --trace`.
int CmdTrace(int argc, const char* const* argv) {
  FlagSet flags;
  flags.DefineInt("machines", 200, "fleet size in machines");
  flags.DefineInt("days", 180, "simulated study duration");
  flags.DefineInt("seed", 42, "master seed (fixes the whole study)");
  flags.DefineDouble("multiplier", 150.0, "mercurial-core rate multiplier over product rates");
  flags.DefineInt("threads", 1, "worker threads for the sharded parallel engine");
  flags.DefineInt("shards", 0, "random-stream shards (0 = auto, as in `study`)");
  flags.DefineBool("audit", false,
                   "blast-radius auditing: annotates timelines with artifact counts and "
                   "records repair events");
  flags.DefineInt("ring-capacity", 1 << 16, "flight-recorder slots per shard ring");
  flags.DefineInt("core", -1, "print only this core's timeline (-1 = every convicted core)");
  flags.DefineDouble("window-start-day", -1.0,
                     "with --window-end-day: also print every event in [start, end) days");
  flags.DefineDouble("window-end-day", -1.0, "end of the --window-start-day slice, exclusive");
  flags.DefineString("jsonl", "", "export the full trace as JSONL to this path");
  flags.DefineString("csv", "", "export the full trace as CSV to this path");
  if (!flags.ParseOrUsage(argc, argv, 2)) {
    return 1;
  }
  if (Status bad_fleet = ValidateFleetFlags(flags); !bad_fleet.ok()) {
    return RejectFlags(bad_fleet);
  }
  if (Status bad_count = CheckFlagFloors(flags, {{"ring-capacity", 0}}); !bad_count.ok()) {
    return RejectFlags(bad_count);
  }

  StudyOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.fleet.machine_count = static_cast<size_t>(flags.GetInt("machines"));
  options.fleet.mercurial_rate_multiplier = flags.GetDouble("multiplier");
  options.duration = SimTime::Days(flags.GetInt("days"));
  options.work_units_per_core_day = 20;
  options.workload.payload_bytes = 256;
  options.screening.offline_period = SimTime::Days(30);
  options.threads = static_cast<int>(flags.GetInt("threads"));
  options.shards = ResolveShards(flags.GetInt("shards"), options.threads);
  options.audit.enabled = flags.GetBool("audit");
  options.trace.enabled = true;
  options.trace.ring_capacity = static_cast<size_t>(flags.GetInt("ring-capacity"));
  if (Status bad_trace = options.trace.Validate(); !bad_trace.ok()) {
    return RejectFlags(bad_trace);
  }

  FleetStudy study(options);
  std::printf("fleet: %zu machines / %zu cores, %lld days, seed %llu\n",
              study.fleet().machine_count(), study.fleet().core_count(),
              static_cast<long long>(flags.GetInt("days")),
              static_cast<unsigned long long>(options.seed));
  const StudyReport report = study.Run();

  PrintIncidentTimelines(report.trace, options.audit.enabled ? &study.ledger() : nullptr,
                         flags.GetInt("core"));

  const double window_start = flags.GetDouble("window-start-day");
  const double window_end = flags.GetDouble("window-end-day");
  if (window_start >= 0.0 && window_end > window_start) {
    const TraceQuery query(report.trace);
    const std::vector<TraceEvent> slice =
        query.TimeWindow(SimTime::Seconds(static_cast<int64_t>(window_start * 86400.0)),
                         SimTime::Seconds(static_cast<int64_t>(window_end * 86400.0)));
    std::printf("\nwindow [day %.2f, day %.2f): %zu events\n", window_start, window_end,
                slice.size());
    for (const TraceEvent& event : slice) {
      std::printf("  core %-6llu", static_cast<unsigned long long>(event.core));
      PrintTraceEvent(event);
    }
  }

  return ExportTraceArtifacts(report.trace, flags.GetString("jsonl"), flags.GetString("csv"))
             ? 0
             : 1;
}

int CmdInterrogate(int argc, const char* const* argv) {
  FlagSet flags;
  flags.DefineString("defect", "vector_bit_flip",
                     "defect class to plant (see `defects`; empty = healthy core)");
  flags.DefineInt("iterations", 1024, "stress iterations per unit per attempt");
  flags.DefineInt("attempts", 3, "interrogation attempts");
  flags.DefineInt("seed", 7, "seed");
  if (!flags.ParseOrUsage(argc, argv, 2)) {
    return 1;
  }
  if (Status bad_count = CheckFlagFloors(flags, {{"iterations", 1}, {"attempts", 1}});
      !bad_count.ok()) {
    return RejectFlags(bad_count);
  }
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  SimCore core(1, rng.Split(1));
  // With no defect planted, a confession would be a false positive of the tester itself.
  const std::string defect_name = flags.GetString("defect");
  if (defect_name.empty()) {
    std::printf("planted: no defect (healthy core)\n");
  } else {
    const auto klass = FindDefectClass(defect_name);
    if (!klass.ok()) {
      return RejectFlags(klass.status());
    }
    CatalogOptions catalog;
    catalog.p_latent = 0.0;
    const DefectSpec spec = DrawDefect(*klass, catalog, rng);
    core.AddDefect(spec);
    std::printf("planted: %s on unit %s (base rate %.2e)\n", spec.label.c_str(),
                ExecUnitName(spec.unit), spec.fvt.base_rate);
  }

  ConfessionOptions options;
  options.stress.iterations_per_unit = static_cast<uint64_t>(flags.GetInt("iterations"));
  options.max_attempts = static_cast<int>(flags.GetInt("attempts"));
  ConfessionTester tester(options);
  const Confession confession = tester.Interrogate(core, rng);
  if (confession.confessed) {
    std::printf("CONFESSED after %d attempt(s), %llu ops; failed units:", confession.attempts,
                static_cast<unsigned long long>(confession.ops_used));
    for (ExecUnit unit : confession.failed_units) {
      std::printf(" %s", ExecUnitName(unit));
    }
    std::printf("\n");
    return 0;
  }
  std::printf("no confession after %d attempts (%llu ops) — %s\n", confession.attempts,
              static_cast<unsigned long long>(confession.ops_used),
              defect_name.empty() ? "none expected of a healthy core"
                                  : "limited reproducibility");
  return 0;
}

int CmdScreen(int argc, const char* const* argv) {
  FlagSet flags;
  flags.DefineString("defect", "", "defect class to plant (empty = healthy core)");
  flags.DefineInt("iterations", 512, "iterations per unit");
  flags.DefineBool("sweep", true, "sweep f/V/T corners");
  flags.DefineInt("seed", 7, "seed");
  if (!flags.ParseOrUsage(argc, argv, 2)) {
    return 1;
  }

  if (Status bad_count = CheckFlagFloors(flags, {{"iterations", 1}}); !bad_count.ok()) {
    return RejectFlags(bad_count);
  }

  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  SimCore core(1, rng.Split(1));
  const std::string defect_name = flags.GetString("defect");
  if (!defect_name.empty()) {
    const auto klass = FindDefectClass(defect_name);
    if (!klass.ok()) {
      return RejectFlags(klass.status());
    }
    CatalogOptions catalog;
    catalog.p_latent = 0.0;
    core.AddDefect(DrawDefect(*klass, catalog, rng));
  }

  StressOptions options;
  options.iterations_per_unit = static_cast<uint64_t>(flags.GetInt("iterations"));
  if (flags.GetBool("sweep")) {
    options.sweep = StandardScreeningSweep();
  }
  const StressReport report = RunStressBattery(core, rng, options);
  std::printf("battery: %s (%llu ops)\n", report.passed() ? "PASSED" : "FAILED",
              static_cast<unsigned long long>(report.total_ops));
  for (const UnitStressResult& unit : report.per_unit) {
    if (!unit.passed()) {
      std::printf("  unit %-8s mismatches=%llu machine_check=%s\n", ExecUnitName(unit.unit),
                  static_cast<unsigned long long>(unit.mismatches),
                  unit.machine_check ? "yes" : "no");
    }
  }
  return report.passed() ? 0 : 2;
}

void PrintTopLevelUsage() {
  std::printf("mercurialctl <command> [flags]\n\ncommands:\n"
              "  study        run a fleet lifecycle study\n"
              "  trace        run a study with the flight recorder on; print incident timelines\n"
              "  recover      inspect + verify a journal file written by `study --journal`\n"
              "  interrogate  plant a defect and extract a confession\n"
              "  screen       run the stress battery on one core\n"
              "  defects      list the defect catalog\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintTopLevelUsage();
    return 1;
  }
  const std::string command = argv[1];
  if (command == "study") {
    return CmdStudy(argc, argv);
  }
  if (command == "trace") {
    return CmdTrace(argc, argv);
  }
  if (command == "recover") {
    return CmdRecover(argc, argv);
  }
  if (command == "interrogate") {
    return CmdInterrogate(argc, argv);
  }
  if (command == "screen") {
    return CmdScreen(argc, argv);
  }
  if (command == "defects") {
    return CmdDefects();
  }
  std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
  PrintTopLevelUsage();
  return 1;
}
