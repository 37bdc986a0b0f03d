// E11 — the one- and two-segment configurations the paper ran but
// "intentionally skipped" in its results section, swept together with the
// three-segment configuration over both package sizes (the
// early-design-decision question the paper motivates; `segbus_cli search`
// answers it over placements too).
#include "bench/common.hpp"

#include "core/energy.hpp"

using namespace segbus;

int main() {
  bench::banner("E11 — configuration sweep (emulator timing model)");
  std::printf("%-28s %14s %10s %12s %12s %12s\n", "configuration",
              "exec time", "CA TCT", "inter-req", "max mean WP",
              "energy (uJ)");
  for (std::uint32_t package : {36u, 18u}) {
    psdf::PsdfModel app = bench::unwrap(apps::mp3_decoder_psdf(package));
    for (std::uint32_t segments : {1u, 2u, 3u}) {
      emu::EmulationResult result = bench::run_mp3(
          package, apps::mp3_allocation(segments), segments);
      double max_wp = 0.0;
      for (const emu::BuStats& bu : result.bus) {
        max_wp = std::max(max_wp, bu.mean_wp());
      }
      platform::PlatformModel platform = bench::unwrap(apps::mp3_platform(
          app, apps::mp3_allocation(segments), segments, package));
      core::EnergyBreakdown energy = bench::unwrap(
          core::estimate_energy(app, platform, result));
      std::printf("%-28s %14s %10llu %12llu %12.2f %12.2f\n",
                  str_format("%u segment(s), s=%u", segments, package)
                      .c_str(),
                  format_us(result.total_execution_time).c_str(),
                  static_cast<unsigned long long>(result.ca.tct),
                  static_cast<unsigned long long>(result.ca.inter_requests),
                  max_wp, energy.total_pj() / 1e6);
    }
  }
  std::printf(
      "(energy: activity-based first-order model; conclusions section of "
      "the paper ties configuration choice to power)\n");

  std::printf(
      "\n(the paper reports only the three-segment results; the sweep shows "
      "what the skipped configurations looked like)\n");
  return 0;
}
