// The chip-profile memo (myriad::shared_profile) against the uncached
// simulation: a cached profile must equal a fresh Myriad2::execute field
// by field, every simulation input must be part of the key, and devices
// allocating one graph from many threads must all see one profile.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "myriad/myriad.h"
#include "ncs/device.h"
#include "nn/zoo.h"
#include "util/metrics.h"

namespace {

using namespace ncsw;
using graphc::CompiledGraph;
using graphc::Precision;
using myriad::InferenceProfile;
using myriad::Myriad2;
using myriad::MyriadConfig;

void expect_same_profile(const InferenceProfile& a, const InferenceProfile& b) {
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const auto& x = a.layers[i];
    const auto& y = b.layers[i];
    SCOPED_TRACE(x.name);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.start_s, y.start_s);
    EXPECT_EQ(x.time_s, y.time_s);
    EXPECT_EQ(x.compute_s, y.compute_s);
    EXPECT_EQ(x.dma_s, y.dma_s);
    EXPECT_EQ(x.tiles, y.tiles);
    EXPECT_EQ(x.shave_utilization, y.shave_utilization);
  }
  EXPECT_EQ(a.total_s, b.total_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

std::uint64_t misses() {
  return util::metrics().counter("myriad.profile_cache.misses").value();
}

/// The first conv layer with more than one tile (so changing tiles or
/// fits_cmx moves its timing).
graphc::LayerCost& first_tiled_conv(CompiledGraph& g) {
  for (auto& layer : g.layers) {
    if (layer.kind == nn::LayerKind::kConv && layer.tiles > 1) return layer;
  }
  throw std::logic_error("no tiled conv layer");
}

CompiledGraph tiny_fp16() {
  return graphc::compile(nn::build_named_network("tiny"), Precision::kFP16);
}

TEST(ProfileCache, MatchesFreshSimulationForEveryZooNetAndPrecision) {
  for (const std::string name : {"googlenet", "alexnet", "squeezenet",
                                 "tiny"}) {
    for (const Precision p : {Precision::kFP16, Precision::kFP32}) {
      SCOPED_TRACE(name + " " + graphc::precision_name(p));
      const auto graph = graphc::compile(nn::build_named_network(name), p);
      const InferenceProfile fresh = Myriad2().execute(graph);
      const auto first = myriad::shared_profile(graph);
      const auto again = myriad::shared_profile(graph);  // a hit
      expect_same_profile(*first, fresh);
      EXPECT_EQ(again, first);
    }
  }
}

TEST(ProfileCache, IgnoresNetNameButKeysOnEverySimulationInput) {
  const CompiledGraph base = tiny_fp16();
  const auto base_profile = myriad::shared_profile(base);

  CompiledGraph renamed = base;
  renamed.net_name = "some_other_name";
  EXPECT_EQ(myriad::shared_profile(renamed), base_profile);

  // Same net_name, one layer re-tiled: a miss with its own profile.
  CompiledGraph retiled = base;
  first_tiled_conv(retiled).tiles += 1;
  auto before = misses();
  const auto retiled_profile = myriad::shared_profile(retiled);
  EXPECT_EQ(misses(), before + 1);
  EXPECT_NE(retiled_profile, base_profile);
  EXPECT_NE(retiled_profile->total_s, base_profile->total_s);
  expect_same_profile(*retiled_profile, Myriad2().execute(retiled));

  // Same net_name, one layer spilling out of CMX.
  CompiledGraph spilled = base;
  first_tiled_conv(spilled).fits_cmx = !first_tiled_conv(spilled).fits_cmx;
  before = misses();
  const auto spilled_profile = myriad::shared_profile(spilled);
  EXPECT_EQ(misses(), before + 1);
  EXPECT_NE(spilled_profile->total_s, base_profile->total_s);
  expect_same_profile(*spilled_profile, Myriad2().execute(spilled));

  // Same graph on a chip with a different conv efficiency.
  MyriadConfig slow_conv;
  slow_conv.eff_conv *= 0.5;
  before = misses();
  const auto slow_profile = myriad::shared_profile(base, slow_conv);
  EXPECT_EQ(misses(), before + 1);
  EXPECT_GT(slow_profile->total_s, base_profile->total_s);
  expect_same_profile(*slow_profile, Myriad2(slow_conv).execute(base));

  // Each variant is cached under its own key; the base is still a hit.
  before = misses();
  EXPECT_EQ(myriad::shared_profile(retiled), retiled_profile);
  EXPECT_EQ(myriad::shared_profile(base, slow_conv), slow_profile);
  EXPECT_EQ(myriad::shared_profile(base), base_profile);
  EXPECT_EQ(misses(), before);
}

TEST(ProfileCache, ConcurrentAllocationsOfOneGraphShareOneProfile) {
  // A graph content no other test simulates, so the threads race on the
  // miss rather than hitting an entry another test left behind.
  auto graph = std::make_shared<CompiledGraph>(tiny_fp16());
  first_tiled_conv(*graph).tiles += 3;
  const InferenceProfile fresh = Myriad2().execute(*graph);

  constexpr int kDevices = 8;
  auto topo = ncs::UsbTopology::all_direct(kDevices, ncs::usb3_link());
  const ncs::NcsConfig cfg;
  std::vector<std::unique_ptr<ncs::NcsDevice>> devices;
  for (int d = 0; d < kDevices; ++d) {
    devices.push_back(
        std::make_unique<ncs::NcsDevice>(d, topo.channel_for(d), cfg));
    devices.back()->open(0.0);
  }
  std::vector<std::thread> threads;
  for (auto& dev : devices) {
    threads.emplace_back([&dev, &graph] { dev->allocate_graph(graph, 0.0); });
  }
  for (auto& t : threads) t.join();

  const auto first = devices.front()->profile();
  for (const auto& dev : devices) {
    EXPECT_EQ(dev->graph().get(), graph.get());  // shared, not copied
    EXPECT_EQ(dev->profile(), first);
  }
  expect_same_profile(*first, fresh);
}

}  // namespace
