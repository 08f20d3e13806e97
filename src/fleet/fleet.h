// Fleet population: machines of mixed CPU products with planted mercurial cores.
//
// The builder is fully deterministic under a seed: which cores are mercurial, what defects
// they carry (drawn from the sim defect catalog), when machines were installed, everything.
// Ground truth (which cores are actually defective) is exposed for metric computation only —
// detection code must not consult it.
//
// Layout. Every core is one row of flat per-core arrays indexed by global core index: a
// health byte, its machine's install time and its machine index (13 bytes). Machines are plain
// values that own a contiguous range of global indices. Only a defective core has a SimCore;
// a healthy core never executes anything (DESIGN.md decision 1), so it needs no object.

#ifndef MERCURIAL_SRC_FLEET_FLEET_H_
#define MERCURIAL_SRC_FLEET_FLEET_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/fleet/cpu_product.h"
#include "src/sim/core.h"

namespace mercurial {

// Identifies a core within a fleet. `global_index` is dense over all cores; machine/core pairs
// are for reporting.
struct CoreId {
  uint64_t global_index = 0;
  uint64_t machine = 0;
  uint32_t core = 0;
};

class Machine {
 public:
  Machine(uint64_t id, const CpuProduct* product, SimTime install_time, uint64_t first_core,
          uint32_t core_count)
      : id_(id),
        product_(product),
        install_time_(install_time),
        first_core_(first_core),
        core_count_(core_count) {}

  uint64_t id() const { return id_; }
  const CpuProduct& product() const { return *product_; }
  SimTime install_time() const { return install_time_; }
  // The machine's cores are the global indices [first_core, first_core + core_count).
  uint64_t first_core() const { return first_core_; }
  size_t core_count() const { return core_count_; }

 private:
  uint64_t id_;
  const CpuProduct* product_;
  SimTime install_time_;
  uint64_t first_core_;
  uint32_t core_count_;
};

struct FleetOptions {
  size_t machine_count = 1000;
  uint64_t seed = 20210531;  // HotOS '21 opening day
  // Relative weights per product in StandardProducts() order; resized/normalized as needed.
  std::vector<double> product_mix = {0.35, 0.40, 0.25};
  // Machines are installed uniformly over [-install_spread, future_install_spread): the fleet
  // has age diversity at simulation start, and (when future_install_spread > 0) keeps growing
  // during the study — machines with a future install time contribute nothing until then.
  SimTime install_spread = SimTime::Days(2 * 365);
  SimTime future_install_spread = SimTime::Days(0);
  // Global multiplier over each product's mercurial_core_rate (for incidence sweeps).
  double mercurial_rate_multiplier = 1.0;
  // When set, replaces every product's defect-catalog tuning (for benches that need a
  // specific defect population, e.g. louder machine-check fractions).
  std::optional<CatalogOptions> catalog_override;
};

class Fleet {
 public:
  static Fleet Build(const FleetOptions& options, const std::vector<CpuProduct>& products);
  static Fleet Build(const FleetOptions& options);  // StandardProducts()

  size_t machine_count() const { return machines_.size(); }
  size_t core_count() const { return core_machine_.size(); }

  const Machine& machine(size_t index) const { return machines_[index]; }

  // The SimCore of a defective core, found by binary search over the short defective list.
  // Healthy cores have none: asking for one fails a MERCURIAL_CHECK.
  SimCore& core(uint64_t global_index) { return *defective_[DefectiveSlot(global_index)]; }
  const SimCore& core(uint64_t global_index) const {
    return *defective_[DefectiveSlot(global_index)];
  }
  CoreId core_id(uint64_t global_index) const {
    const uint32_t m = core_machine_[global_index];
    return CoreId{global_index, m,
                  static_cast<uint32_t>(global_index - machines_[m].first_core())};
  }

  // Adds a defect to a core, creating its SimCore if it was healthy (with the stream and DVFS
  // curve Build would have given it). The only change allowed after Build; it keeps
  // mercurial_cores(), IsMercurial, Healthy and SetAges consistent with the planted defects.
  void PlantDefect(uint64_t global_index, DefectSpec spec);

  // Ground truth for metrics: global indices of cores that carry defects. Health changes only
  // through PlantDefect, so IsMercurial is equivalent to !Healthy for the fleet's lifetime —
  // and, being a binary search over a small cache-resident list, is the cheap way to ask on
  // hot paths.
  const std::vector<uint64_t>& mercurial_cores() const { return mercurial_cores_; }
  bool IsMercurial(uint64_t global_index) const {
    return std::binary_search(mercurial_cores_.begin(), mercurial_cores_.end(), global_index);
  }

  // One contiguous byte per core, cleared by PlantDefect. The screening fast path asks this
  // per screened core, so it is one flat load rather than a search of the defective list.
  bool Healthy(uint64_t global_index) const { return healthy_[global_index] != 0; }

  // True once the core's machine has been installed (install times can be in the future when
  // FleetOptions::future_install_spread > 0). Checked per visited core per tick, so it reads
  // a flat per-core copy of the machine's (immutable) install time.
  bool Installed(uint64_t global_index, SimTime now) const {
    return install_seconds_[global_index] <= now.seconds();
  }

  // Number of machines installed by `now`.
  size_t InstalledMachines(SimTime now) const;

  // Ids of the machines installed by `now`, ascending. The population chaos machine-restart
  // draws sample from: a machine that is not racked yet cannot crash-restart.
  std::vector<uint64_t> InstalledMachineIds(SimTime now) const;

  // Updates every defective core's age to (now - machine install time), clamped at 0. Call
  // once per simulation tick so aging defects see the right age.
  void SetAges(SimTime now);

  const FleetOptions& options() const { return options_; }
  const std::vector<CpuProduct>& products() const { return products_; }

 private:
  Fleet() = default;

  // Position of a defective core in mercurial_cores_ and defective_.
  size_t DefectiveSlot(uint64_t global_index) const;

  FleetOptions options_;
  std::vector<CpuProduct> products_;
  Rng defect_rng_;  // parent of every defective core's stream
  std::vector<Machine> machines_;
  std::vector<uint32_t> core_machine_;     // per core: machine index
  std::vector<int64_t> install_seconds_;   // per core: owning machine's install time
  std::vector<uint8_t> healthy_;           // per core: 1 until PlantDefect
  std::vector<uint64_t> mercurial_cores_;  // sorted global indices
  std::vector<std::unique_ptr<SimCore>> defective_;  // parallel to mercurial_cores_
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_FLEET_FLEET_H_
