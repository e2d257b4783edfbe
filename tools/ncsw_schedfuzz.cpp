// ncsw_schedfuzz — schedule-perturbation determinism checker.
//
// The serving stack promises byte-identical replay because its event
// loops break same-timestamp ties in a fixed order. This tool probes
// the stronger property underneath: that the *results* do not depend
// on that order. It re-runs loadgen-shaped serve, cluster and zoo
// scenarios (check::serve_scenario & co.) under seeded random
// permutations of every same-timestamp event group (check/schedfuzz.h)
// and fails if any permutation changes the final report fingerprint,
// minimising a divergence to the single tie decision that flips it.
//
//   ./build/tools/ncsw_schedfuzz --seeds 32
//   ./build/tools/ncsw_schedfuzz --scenario cluster --requests 600
//
// Poisson arrivals and calibrated service times rarely collide on the
// simulated clock, so loadgen-shaped ties are sparse; the --quantize-ms
// flag snaps arrivals onto a shared grid to force tie groups and
// genuinely exercise the permuter. Exit
// codes: 0 invariant (no divergence), 1 divergence found.
#include <cstdio>
#include <iostream>

#include "check/schedfuzz.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("ncsw_schedfuzz",
                "re-run serve/cluster/zoo scenarios under seeded permutations "
                "of same-timestamp event orderings and fail on any result "
                "divergence");
  cli.add_int("seeds", 32, "perturbed schedules per scenario");
  cli.add_int("requests", 300, "requests per run");
  cli.add_int("seed", 42, "arrival-process seed");
  cli.add_double("rate", 0.0, "offered load (req/s); 0 = scenario default");
  cli.add_double("quantize-ms", 0.0,
                 "snap arrivals onto this grid to force same-timestamp "
                 "ties (0 = raw Poisson times)");
  cli.add_string("scenario", "all",
                 "which workload: all | serve | cluster | zoo");
  cli.add_bool("no-minimize", false,
               "skip the single-deviation minimisation of divergences");
  try {
    if (!cli.parse(argc, argv)) return 0;

    check::ScenarioKnobs knobs;
    knobs.requests = cli.get_int("requests");
    knobs.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    knobs.rate = cli.get_double("rate");
    knobs.quantize_s = cli.get_double("quantize-ms") * 1e-3;

    check::SchedFuzzConfig cfg;
    cfg.seeds = static_cast<int>(cli.get_int("seeds"));
    cfg.minimize = !cli.get_bool("no-minimize");

    const std::string which = cli.get_string("scenario");
    if (which != "all" && which != "serve" && which != "cluster" &&
        which != "zoo") {
      std::cerr << "ncsw_schedfuzz: unknown --scenario \"" << which
                << "\" (want all | serve | cluster | zoo)\n";
      return 2;
    }

    int diverged = 0;
    auto run = [&](const char* name, const check::Scenario& scenario) {
      const check::SchedFuzzReport report =
          check::fuzz_schedule(scenario, cfg);
      std::printf(
          "%-8s %d seed(s), %lld tie group(s), %lld perturbed pick(s): %s\n",
          name, report.seeds_run,
          static_cast<long long>(report.ties_seen),
          static_cast<long long>(report.perturbed),
          report.ok() ? "invariant" : "DIVERGED");
      for (const auto& d : report.divergences) {
        ++diverged;
        std::printf("%s\n", d.to_string().c_str());
      }
    };
    if (which == "all" || which == "serve") {
      run("serve", check::serve_scenario(knobs));
    }
    if (which == "all" || which == "cluster") {
      run("cluster", check::cluster_scenario(knobs));
    }
    if (which == "all" || which == "zoo") {
      run("zoo", check::zoo_scenario(knobs));
    }
    return diverged == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "ncsw_schedfuzz: " << e.what() << "\n";
    return 2;
  }
}
