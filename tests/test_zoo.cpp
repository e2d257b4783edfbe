#include "nn/zoo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/application.h"
#include "core/model.h"
#include "core/stick_fleet.h"
#include "core/vpu_target.h"
#include "dataset/synthetic.h"
#include "graphc/compiler.h"
#include "myriad/myriad.h"
#include "nn/executor.h"
#include "nn/googlenet.h"

namespace {

using namespace ncsw::nn;
using ncsw::tensor::Shape;

TEST(AlexNet, CanonicalStageShapes) {
  const Graph g = build_alexnet();
  EXPECT_NO_THROW(g.validate());
  auto shape_of = [&](const char* name) {
    const int id = g.find(name);
    EXPECT_GE(id, 0) << name;
    return g.layer(id).out_shape;
  };
  EXPECT_EQ(shape_of("conv1"), (Shape{1, 96, 55, 55}));
  EXPECT_EQ(shape_of("pool1"), (Shape{1, 96, 27, 27}));
  EXPECT_EQ(shape_of("conv2"), (Shape{1, 256, 27, 27}));
  EXPECT_EQ(shape_of("pool2"), (Shape{1, 256, 13, 13}));
  EXPECT_EQ(shape_of("conv5"), (Shape{1, 256, 13, 13}));
  EXPECT_EQ(shape_of("pool5"), (Shape{1, 256, 6, 6}));
  EXPECT_EQ(shape_of("fc6"), (Shape{1, 4096, 1, 1}));
  EXPECT_EQ(g.output_shape(), (Shape{1, 1000, 1, 1}));
}

TEST(AlexNet, MacAndParameterCounts) {
  const Graph g = build_alexnet();
  // Ungrouped AlexNet: ~1.1 GMACs, ~60M+ parameters (FC-dominated).
  const auto macs = graph_macs(g);
  EXPECT_GT(macs, 0.9e9);
  EXPECT_LT(macs, 1.4e9);
  const WeightsF w = init_msra(g, 0);
  EXPECT_GT(w.param_count(), 55'000'000);
  EXPECT_LT(w.param_count(), 75'000'000);
}

TEST(SqueezeNet, CanonicalStageShapes) {
  const Graph g = build_squeezenet_v11();
  EXPECT_NO_THROW(g.validate());
  auto shape_of = [&](const char* name) {
    const int id = g.find(name);
    EXPECT_GE(id, 0) << name;
    return g.layer(id).out_shape;
  };
  EXPECT_EQ(shape_of("conv1"), (Shape{1, 64, 113, 113}));
  EXPECT_EQ(shape_of("fire2/concat"), (Shape{1, 128, 56, 56}));
  EXPECT_EQ(shape_of("fire4/concat"), (Shape{1, 256, 28, 28}));
  EXPECT_EQ(shape_of("fire9/concat"), (Shape{1, 512, 14, 14}));
  EXPECT_EQ(shape_of("pool10"), (Shape{1, 1000, 1, 1}));
  EXPECT_EQ(g.output_shape(), (Shape{1, 1000, 1, 1}));
}

TEST(SqueezeNet, TinyParameterFootprint) {
  const Graph g = build_squeezenet_v11();
  const WeightsF w = init_msra(g, 0);
  // SqueezeNet v1.1: ~1.24M parameters — ~50x fewer than AlexNet.
  EXPECT_GT(w.param_count(), 1'000'000);
  EXPECT_LT(w.param_count(), 1'500'000);
  // And ~0.39 GMACs.
  EXPECT_NEAR(static_cast<double>(graph_macs(g)), 0.39e9, 0.08e9);
}

TEST(FireModule, StructureAndShapes) {
  Graph g("probe");
  const int in = g.add_input("data", 8, 10, 10);
  const int out = add_fire_module(g, "fire", in, 4, 16, 16);
  EXPECT_EQ(g.layer(out).out_shape, (Shape{1, 32, 10, 10}));
  EXPECT_GE(g.find("fire/squeeze1x1"), 0);
  EXPECT_GE(g.find("fire/expand1x1"), 0);
  EXPECT_GE(g.find("fire/expand3x3"), 0);
}

TEST(FireModule, RunsFunctionally) {
  Graph g("probe");
  const int in = g.add_input("data", 4, 8, 8);
  const int fire = add_fire_module(g, "fire", in, 2, 4, 4);
  g.add_softmax("prob", g.add_fc("fc", fire, FCParams{5}));
  const WeightsF w = init_msra(g, 3);
  ncsw::tensor::TensorF input(Shape{2, 4, 8, 8}, 0.5f);
  const auto probs = run_probabilities(g, w, input);
  for (const auto& row : probs) {
    double sum = 0;
    for (float p : row) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST(Zoo, NamedLookupAndErrors) {
  EXPECT_EQ(build_named_network("googlenet").name(), "bvlc_googlenet");
  EXPECT_EQ(build_named_network("alexnet").name(), "alexnet");
  EXPECT_EQ(build_named_network("squeezenet").name(), "squeezenet_v1.1");
  EXPECT_EQ(build_named_network("tiny").name(), "tiny_googlenet");
  EXPECT_THROW(build_named_network("resnet50"), std::invalid_argument);
  EXPECT_EQ(network_zoo_names().size(), 4u);
}

TEST(Zoo, EveryNetworkCompilesAndExecutesOnTheChip) {
  ncsw::myriad::Myriad2 chip;
  for (const auto& name : network_zoo_names()) {
    const auto compiled = ncsw::graphc::compile(
        build_named_network(name), ncsw::graphc::Precision::kFP16);
    const auto profile = chip.execute(compiled);
    EXPECT_GT(profile.total_s, 0.0) << name;
    EXPECT_LT(profile.total_s, 0.5) << name;   // all under half a second
    EXPECT_LT(profile.avg_power_w, 1.0) << name;
  }
}

TEST(Zoo, RelativeSpeedOrderingOnTheStick) {
  ncsw::myriad::Myriad2 chip;
  auto time_of = [&](const char* name) {
    return chip
        .execute(ncsw::graphc::compile(build_named_network(name),
                                       ncsw::graphc::Precision::kFP16))
        .total_s;
  };
  const double squeezenet = time_of("squeezenet");
  const double googlenet = time_of("googlenet");
  const double alexnet = time_of("alexnet");
  // SqueezeNet is the lightest; GoogLeNet the heaviest compute.
  EXPECT_LT(squeezenet, alexnet);
  EXPECT_LT(squeezenet, googlenet);
  EXPECT_LT(alexnet, googlenet * 1.1);  // AlexNet near GoogLeNet (FC DMA)
}

// ---- concurrent tenants through the fleet ---------------------------------

/// FNV-1a over every prediction's label and full probability bits: any
/// numerical deviation between two classify passes changes the digest.
std::uint64_t digest_of(const std::vector<ncsw::core::Prediction>& preds) {
  std::uint64_t h = 1469598103934665603ULL;
  auto fold = [&](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& p : preds) {
    fold(&p.label, sizeof(p.label));
    fold(p.probs.data(), p.probs.size() * sizeof(float));
  }
  return h;
}

TEST(ZooTenants, InterleavedTenantsMatchSoloRunsByteForByte) {
  ncsw::dataset::DatasetConfig dc;
  dc.num_classes = 6;
  ncsw::dataset::SyntheticImageNet data(dc);
  // Two tenants: same architecture, different weights — so a swap that
  // leaked one tenant's state into the other's outputs must change a
  // digest. The compiled blob carries the weights, so every swap-in
  // reattaches the right functional payload.
  std::vector<ncsw::core::ZooModel> zoo;
  zoo.push_back(
      {"tenant-a", ncsw::core::ModelBundle::tiny_functional(data, {32, 6},
                                                            0x111ULL)});
  zoo.push_back(
      {"tenant-b", ncsw::core::ModelBundle::tiny_functional(data, {32, 6},
                                                            0x222ULL)});

  ncsw::core::Preprocessor prep;
  prep.input_size = 32;
  prep.means = data.means();
  std::vector<ncsw::tensor::TensorF> inputs;
  for (int c = 0; c < 6; ++c) inputs.push_back(prep(data.sample(0, c).image));

  ncsw::core::StickFleetConfig cfg;
  cfg.devices = 1;

  // Solo passes: each tenant alone on a fresh fleet.
  std::uint64_t solo_a = 0, solo_b = 0;
  {
    ncsw::core::StickFleet fleet(zoo, cfg);
    solo_a = digest_of(fleet.stick(0).classify(inputs));
  }
  {
    ncsw::core::StickFleet fleet(zoo, cfg);
    fleet.swap_to(0, 1, 0.0);
    solo_b = digest_of(fleet.stick(0).classify(inputs));
  }
  ASSERT_NE(solo_a, solo_b);  // the tenants are actually distinct

  // Interleaved: tenants alternate on one stick through repeated swaps;
  // every pass must reproduce its solo digest exactly.
  ncsw::core::StickFleet fleet(zoo, cfg);
  double now = 0.0;
  for (int round = 0; round < 3; ++round) {
    now = fleet.swap_to(0, 0, now);
    EXPECT_EQ(digest_of(fleet.stick(0).classify(inputs)), solo_a)
        << "tenant-a, round " << round;
    now = fleet.swap_to(0, 1, now);
    EXPECT_EQ(digest_of(fleet.stick(0).classify(inputs)), solo_b)
        << "tenant-b, round " << round;
  }
  // Round 0's swap to tenant-a is a no-op (initially resident): 5 real
  // swaps across 3 rounds.
  EXPECT_EQ(fleet.swaps(), 5);
}

TEST(ZooTenants, StickAndVpuTargetsClassifyBitIdentically) {
  // StickTarget and VpuTarget share one per-image FP16 step; the same
  // functional bundle and inputs must give the same probability bits,
  // whether one stick runs every image or two threaded sticks split them.
  ncsw::dataset::DatasetConfig dc;
  dc.num_classes = 6;
  ncsw::dataset::SyntheticImageNet data(dc);
  const auto bundle = ncsw::core::ModelBundle::tiny_functional(data, {32, 6});
  ncsw::core::Preprocessor prep;
  prep.input_size = 32;
  prep.means = data.means();
  std::vector<ncsw::tensor::TensorF> inputs;
  for (int c = 0; c < 6; ++c) inputs.push_back(prep(data.sample(1, c).image));

  std::vector<ncsw::core::Prediction> on_stick;
  {
    ncsw::core::StickFleetConfig cfg;
    cfg.devices = 1;
    ncsw::core::StickFleet fleet({{"tenant", bundle}}, cfg);
    on_stick = fleet.stick(0).classify(inputs);
  }
  std::vector<ncsw::core::Prediction> on_vpu;
  {
    ncsw::core::VpuTargetConfig cfg;
    cfg.devices = 2;
    ncsw::core::VpuTarget vpu(bundle, cfg);
    on_vpu = vpu.classify(inputs);
  }
  ASSERT_EQ(on_stick.size(), inputs.size());
  ASSERT_EQ(on_vpu.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(on_stick[i].label, on_vpu[i].label) << i;
    ASSERT_EQ(on_stick[i].probs.size(), 6u) << i;
    ASSERT_EQ(on_vpu[i].probs.size(), 6u) << i;
    EXPECT_EQ(std::memcmp(on_stick[i].probs.data(), on_vpu[i].probs.data(),
                          6 * sizeof(float)),
              0)
        << i;
  }
}

}  // namespace
