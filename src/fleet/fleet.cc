#include "src/fleet/fleet.h"

#include <algorithm>
#include <cstdint>

#include "src/common/logging.h"

namespace mercurial {

Fleet Fleet::Build(const FleetOptions& options) {
  return Build(options, StandardProducts());
}

Fleet Fleet::Build(const FleetOptions& options, const std::vector<CpuProduct>& products) {
  MERCURIAL_CHECK_GT(products.size(), 0u);
  Fleet fleet;
  fleet.options_ = options;
  fleet.products_ = products;
  if (options.catalog_override.has_value()) {
    for (CpuProduct& product : fleet.products_) {
      product.catalog = *options.catalog_override;
    }
  }

  Rng rng(options.seed);
  Rng placement_rng = rng.Split(0x1001);
  fleet.defect_rng_ = rng.Split(0x1002);

  // Normalize product mix against however many products we have.
  std::vector<double> mix = options.product_mix;
  mix.resize(products.size(), mix.empty() ? 1.0 : 0.0);
  double mix_total = 0.0;
  for (double w : mix) {
    mix_total += w;
  }
  MERCURIAL_CHECK_GT(mix_total, 0.0);

  MERCURIAL_CHECK_LE(options.machine_count, uint64_t{UINT32_MAX}) << "machine index is 32-bit";
  uint64_t global_index = 0;
  for (size_t m = 0; m < options.machine_count; ++m) {
    // Pick a product by weight.
    double draw = placement_rng.NextDouble() * mix_total;
    size_t product_index = 0;
    for (size_t p = 0; p < mix.size(); ++p) {
      draw -= mix[p];
      if (draw <= 0.0) {
        product_index = p;
        break;
      }
    }
    const CpuProduct& product = fleet.products_[product_index];

    const double window = static_cast<double>(options.install_spread.seconds() +
                                              options.future_install_spread.seconds());
    const auto install_offset = static_cast<int64_t>(placement_rng.NextDouble() * window);
    const SimTime install =
        SimTime::Seconds(install_offset - options.install_spread.seconds());

    fleet.machines_.emplace_back(m, &product, install, global_index,
                                 static_cast<uint32_t>(product.cores_per_machine));
    const double core_rate = product.mercurial_core_rate * options.mercurial_rate_multiplier;

    for (int c = 0; c < product.cores_per_machine; ++c) {
      fleet.core_machine_.push_back(static_cast<uint32_t>(m));
      fleet.install_seconds_.push_back(install.seconds());
      fleet.healthy_.push_back(1);
      if (placement_rng.Bernoulli(core_rate)) {
        Rng core_defect_rng = fleet.defect_rng_.Split(0x2000'0000ull ^ global_index);
        const uint64_t defect_count = 1 + core_defect_rng.Poisson(product.mean_extra_defects);
        for (uint64_t d = 0; d < defect_count; ++d) {
          fleet.PlantDefect(global_index, DrawRandomDefect(product.catalog, core_defect_rng));
        }
      }
      ++global_index;
    }
  }
  return fleet;
}

size_t Fleet::DefectiveSlot(uint64_t global_index) const {
  const auto it =
      std::lower_bound(mercurial_cores_.begin(), mercurial_cores_.end(), global_index);
  MERCURIAL_CHECK(it != mercurial_cores_.end() && *it == global_index)
      << "core " << global_index << " is healthy and has no SimCore";
  return static_cast<size_t>(it - mercurial_cores_.begin());
}

void Fleet::PlantDefect(uint64_t global_index, DefectSpec spec) {
  MERCURIAL_CHECK_LT(global_index, core_count());
  const auto it =
      std::lower_bound(mercurial_cores_.begin(), mercurial_cores_.end(), global_index);
  const auto slot = it - mercurial_cores_.begin();
  if (it == mercurial_cores_.end() || *it != global_index) {
    // Split is pure, so the core's stream does not depend on which cores came before it.
    auto core = std::make_unique<SimCore>(global_index, defect_rng_.Split(global_index));
    core->set_dvfs(machines_[core_machine_[global_index]].product().dvfs);
    mercurial_cores_.insert(it, global_index);
    defective_.insert(defective_.begin() + slot, std::move(core));
    healthy_[global_index] = 0;
  }
  defective_[slot]->AddDefect(std::move(spec));
}

size_t Fleet::InstalledMachines(SimTime now) const {
  size_t count = 0;
  for (const Machine& machine : machines_) {
    if (machine.install_time() <= now) {
      ++count;
    }
  }
  return count;
}

std::vector<uint64_t> Fleet::InstalledMachineIds(SimTime now) const {
  std::vector<uint64_t> ids;
  ids.reserve(machines_.size());
  for (const Machine& machine : machines_) {
    if (machine.install_time() <= now) {
      ids.push_back(machine.id());
    }
  }
  return ids;
}

void Fleet::SetAges(SimTime now) {
  // Only defective cores ever read their age (defect gates are the sole consumer), so updating
  // the mercurial subset keeps the per-tick cost independent of fleet size.
  for (size_t k = 0; k < mercurial_cores_.size(); ++k) {
    const int64_t age_seconds =
        std::max<int64_t>(0, now.seconds() - install_seconds_[mercurial_cores_[k]]);
    defective_[k]->set_age(SimTime::Seconds(age_seconds));
  }
}

}  // namespace mercurial
