#include "mvnc/mvnc.h"
#include "mvnc/sim_host.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <thread>

#include "check/protocol.h"
#include "core/application.h"
#include "core/model.h"
#include "core/vpu_target.h"
#include "nn/googlenet.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace {

using namespace ncsw::mvnc;
using ncsw::check::ViolationKind;

std::uint64_t violations(ViolationKind kind) {
  return ncsw::check::verifier().count(kind);
}
using ncsw::graphc::compile;
using ncsw::graphc::Precision;
using ncsw::graphc::serialize;

std::vector<std::uint8_t> tiny_blob() {
  static const auto blob = serialize(
      compile(ncsw::nn::build_tiny_googlenet({32, 10}), Precision::kFP16));
  return blob;
}

class MvncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HostConfig cfg;
    cfg.devices = 2;
    // Several cases below commit *intentional* protocol misuse (double
    // close, FIFO over-issue, ...) to pin down the NCAPI error codes, so
    // the fixture runs the verifier in log mode and asserts on its
    // counters instead of letting a suite-wide NCSW_CHECK=strict abort.
    cfg.check = ncsw::check::CheckMode::kLog;
    host_reset(cfg);
  }
  void TearDown() override {
    HostConfig empty;
    empty.devices = 0;
    host_reset(empty);
  }

  void* open_first() {
    char name[64];
    EXPECT_EQ(mvncGetDeviceName(0, name, sizeof(name)), MVNC_OK);
    void* dev = nullptr;
    EXPECT_EQ(mvncOpenDevice(name, &dev), MVNC_OK);
    return dev;
  }

  void* allocate(void* dev) {
    const auto blob = tiny_blob();
    void* graph = nullptr;
    EXPECT_EQ(mvncAllocateGraph(dev, &graph, blob.data(),
                                static_cast<unsigned int>(blob.size())),
              MVNC_OK);
    return graph;
  }

  std::vector<ncsw::fp16::half> input_tensor() {
    return std::vector<ncsw::fp16::half>(3 * 32 * 32);
  }
};

TEST_F(MvncTest, EnumerationListsAllDevices) {
  char name[64];
  EXPECT_EQ(mvncGetDeviceName(0, name, sizeof(name)), MVNC_OK);
  EXPECT_STREQ(name, "/sim/ncs0");
  EXPECT_EQ(mvncGetDeviceName(1, name, sizeof(name)), MVNC_OK);
  EXPECT_STREQ(name, "/sim/ncs1");
  EXPECT_EQ(mvncGetDeviceName(2, name, sizeof(name)), MVNC_DEVICE_NOT_FOUND);
  EXPECT_EQ(mvncGetDeviceName(-1, name, sizeof(name)), MVNC_DEVICE_NOT_FOUND);
}

TEST_F(MvncTest, EnumerationValidatesBuffer) {
  EXPECT_EQ(mvncGetDeviceName(0, nullptr, 64), MVNC_INVALID_PARAMETERS);
  char tiny[4];
  EXPECT_EQ(mvncGetDeviceName(0, tiny, sizeof(tiny)),
            MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, OpenUnknownNameFails) {
  void* dev = nullptr;
  EXPECT_EQ(mvncOpenDevice("/sim/ncs99", &dev), MVNC_DEVICE_NOT_FOUND);
  EXPECT_EQ(mvncOpenDevice(nullptr, &dev), MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, DoubleOpenIsBusy) {
  void* dev = open_first();
  ASSERT_NE(dev, nullptr);
  void* dev2 = nullptr;
  EXPECT_EQ(mvncOpenDevice("/sim/ncs0", &dev2), MVNC_BUSY);
  EXPECT_EQ(violations(ViolationKind::kDoubleOpen), 1u);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_OK);
}

TEST_F(MvncTest, CloseInvalidatesHandle) {
  void* dev = open_first();
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_OK);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(violations(ViolationKind::kDoubleClose), 1u);
}

TEST_F(MvncTest, AllocateGraphRejectsGarbage) {
  void* dev = open_first();
  void* graph = nullptr;
  const std::uint8_t junk[16] = {1, 2, 3};
  EXPECT_EQ(mvncAllocateGraph(dev, &graph, junk, sizeof(junk)),
            MVNC_UNSUPPORTED_GRAPH_FILE);
  EXPECT_EQ(mvncAllocateGraph(dev, &graph, nullptr, 10),
            MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, AllocateGraphRejectsFp32Blob) {
  // The stick only executes FP16 graphs, like the real NCS.
  const auto blob32 = serialize(
      compile(ncsw::nn::build_tiny_googlenet({32, 10}), Precision::kFP32));
  void* dev = open_first();
  void* graph = nullptr;
  EXPECT_EQ(mvncAllocateGraph(dev, &graph, blob32.data(),
                              static_cast<unsigned int>(blob32.size())),
            MVNC_UNSUPPORTED_GRAPH_FILE);
}

TEST_F(MvncTest, GraphExceedingLpddrIsOutOfMemory) {
  // A 6 GB parameter set cannot fit the stick's 4 GB LPDDR3.
  ncsw::nn::Graph big("too_big");
  const int in = big.add_input("data", 1000, 1, 1);
  big.add_fc("fc", in, ncsw::nn::FCParams{3'000'000});
  const auto blob = serialize(
      compile(big, Precision::kFP16));
  void* dev = open_first();
  void* graph = nullptr;
  EXPECT_EQ(mvncAllocateGraph(dev, &graph, blob.data(),
                              static_cast<unsigned int>(blob.size())),
            MVNC_OUT_OF_MEMORY);
  // The device remains usable for a graph that fits.
  void* ok = allocate(dev);
  EXPECT_NE(ok, nullptr);
}

TEST_F(MvncTest, LoadGetRoundTrip) {
  void* dev = open_first();
  void* graph = allocate(dev);
  auto input = input_tensor();
  int marker = 42;
  EXPECT_EQ(mvncLoadTensor(graph, input.data(),
                           static_cast<unsigned int>(input.size() * 2),
                           &marker),
            MVNC_OK);
  void* out = nullptr;
  unsigned int out_len = 0;
  void* user = nullptr;
  EXPECT_EQ(mvncGetResult(graph, &out, &out_len, &user), MVNC_OK);
  EXPECT_EQ(out_len, 10u * 2u);  // 10 classes, FP16
  EXPECT_EQ(user, &marker);
  ASSERT_NE(out, nullptr);
  // A timing-only graph returns zeros, every time.
  for (int round = 0; round < 2; ++round) {
    const std::vector<std::uint8_t> zeros(out_len, 0);
    EXPECT_EQ(std::memcmp(out, zeros.data(), out_len), 0);
    ASSERT_EQ(mvncLoadTensor(graph, input.data(),
                             static_cast<unsigned int>(input.size() * 2),
                             nullptr),
              MVNC_OK);
    ASSERT_EQ(mvncGetResult(graph, &out, &out_len, &user), MVNC_OK);
    EXPECT_EQ(out_len, 10u * 2u);
  }
}

TEST_F(MvncTest, ByteIdenticalGraphFilesShareOneParsedGraph) {
  void* dev0 = open_first();
  void* dev1 = nullptr;
  ASSERT_EQ(mvncOpenDevice("/sim/ncs1", &dev1), MVNC_OK);
  void* g0 = allocate(dev0);
  void* g1 = allocate(dev1);  // a separate copy of the same bytes
  const auto c0 = graph_device(g0)->graph();
  EXPECT_EQ(graph_device(g1)->graph(), c0);
  EXPECT_EQ(graph_device(g1)->profile(), graph_device(g0)->profile());

  // Different bytes parse to their own graph.
  const auto other = serialize(
      compile(ncsw::nn::build_tiny_googlenet({32, 5}), Precision::kFP16));
  ASSERT_EQ(mvncDeallocateGraph(g1), MVNC_OK);
  void* g2 = nullptr;
  ASSERT_EQ(mvncAllocateGraph(dev1, &g2, other.data(),
                              static_cast<unsigned int>(other.size())),
            MVNC_OK);
  EXPECT_NE(graph_device(g2)->graph(), c0);
  EXPECT_EQ(graph_device(g2)->graph()->num_outputs, 5);
}

TEST_F(MvncTest, LoadRejectsWrongSize) {
  void* dev = open_first();
  void* graph = allocate(dev);
  auto input = input_tensor();
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), 10, nullptr),
            MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(mvncLoadTensor(graph, nullptr,
                           static_cast<unsigned int>(input.size() * 2),
                           nullptr),
            MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, GetResultWithoutLoadIsNoData) {
  void* dev = open_first();
  void* graph = allocate(dev);
  void* out = nullptr;
  unsigned int len = 0;
  EXPECT_EQ(mvncGetResult(graph, &out, &len, nullptr), MVNC_NO_DATA);
  EXPECT_EQ(violations(ViolationKind::kUnmatchedGetResult), 1u);
}

TEST_F(MvncTest, FifoFullReturnsBusy) {
  void* dev = open_first();
  void* graph = allocate(dev);
  auto input = input_tensor();
  const auto bytes = static_cast<unsigned int>(input.size() * 2);
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, nullptr), MVNC_OK);
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, nullptr), MVNC_OK);
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, nullptr), MVNC_BUSY);
  EXPECT_EQ(violations(ViolationKind::kOverIssue), 1u);
  void* out;
  unsigned int len;
  EXPECT_EQ(mvncGetResult(graph, &out, &len, nullptr), MVNC_OK);
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, nullptr), MVNC_OK);
  EXPECT_EQ(violations(ViolationKind::kOverIssue), 1u);
}

TEST_F(MvncTest, ResultsComeBackInFifoOrder) {
  void* dev = open_first();
  void* graph = allocate(dev);
  auto input = input_tensor();
  const auto bytes = static_cast<unsigned int>(input.size() * 2);
  int a = 1, b = 2;
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, &a), MVNC_OK);
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, &b), MVNC_OK);
  void* out;
  unsigned int len;
  void* user = nullptr;
  EXPECT_EQ(mvncGetResult(graph, &out, &len, &user), MVNC_OK);
  EXPECT_EQ(user, &a);
  EXPECT_EQ(mvncGetResult(graph, &out, &len, &user), MVNC_OK);
  EXPECT_EQ(user, &b);
}

TEST_F(MvncTest, TicketsAdvanceHostClock) {
  void* dev = open_first();
  void* graph = allocate(dev);
  auto input = input_tensor();
  const auto bytes = static_cast<unsigned int>(input.size() * 2);
  const double t0 = host_time(graph).value();
  mvncLoadTensor(graph, input.data(), bytes, nullptr);
  void* out;
  unsigned int len;
  mvncGetResult(graph, &out, &len, nullptr);
  const auto ticket = last_ticket(graph);
  ASSERT_TRUE(ticket.has_value());
  EXPECT_GT(ticket->result_ready, t0);
  EXPECT_GE(host_time(graph).value(), ticket->result_ready);
}

TEST_F(MvncTest, SetHostTimeOnlyMovesForward) {
  void* dev = open_first();
  void* graph = allocate(dev);
  const double t0 = host_time(graph).value();
  EXPECT_TRUE(set_host_time(graph, t0 + 5.0));
  EXPECT_DOUBLE_EQ(host_time(graph).value(), t0 + 5.0);
  EXPECT_TRUE(set_host_time(graph, t0));  // no-op backwards
  EXPECT_DOUBLE_EQ(host_time(graph).value(), t0 + 5.0);
}

TEST_F(MvncTest, InterOpGapValidation) {
  void* dev = open_first();
  void* graph = allocate(dev);
  EXPECT_TRUE(set_inter_op_gap(graph, 0.001));
  EXPECT_FALSE(set_inter_op_gap(graph, -1.0));
  EXPECT_FALSE(set_inter_op_gap(nullptr, 0.001));
}

TEST_F(MvncTest, TimeTakenOptionReportsPerLayerMs) {
  void* dev = open_first();
  void* graph = allocate(dev);
  float times[256];
  unsigned int len = sizeof(times);
  EXPECT_EQ(mvncGetGraphOption(graph, MVNC_TIME_TAKEN, times, &len), MVNC_OK);
  const std::size_t layers = len / sizeof(float);
  EXPECT_GT(layers, 10u);
  double total = 0;
  for (std::size_t i = 0; i < layers; ++i) {
    EXPECT_GE(times[i], 0.0f);
    total += times[i];
  }
  EXPECT_GT(total, 0.0);
}

TEST_F(MvncTest, TimeTakenRejectsSmallBuffer) {
  void* dev = open_first();
  void* graph = allocate(dev);
  float one;
  unsigned int len = sizeof(one);
  EXPECT_EQ(mvncGetGraphOption(graph, MVNC_TIME_TAKEN, &one, &len),
            MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, DebugInfoOption) {
  void* dev = open_first();
  void* graph = allocate(dev);
  char buf[160];
  unsigned int len = sizeof(buf);
  EXPECT_EQ(mvncGetGraphOption(graph, MVNC_DEBUG_INFO, buf, &len), MVNC_OK);
  EXPECT_NE(std::strstr(buf, "tiny_googlenet"), nullptr);
}

TEST_F(MvncTest, UnknownOptionRejected) {
  void* dev = open_first();
  void* graph = allocate(dev);
  char buf[16];
  unsigned int len = sizeof(buf);
  EXPECT_EQ(mvncGetGraphOption(graph, 12345, buf, &len),
            MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, DeallocateInvalidatesGraphHandle) {
  void* dev = open_first();
  void* graph = allocate(dev);
  EXPECT_EQ(mvncDeallocateGraph(graph), MVNC_OK);
  EXPECT_EQ(mvncDeallocateGraph(graph), MVNC_INVALID_PARAMETERS);
  auto input = input_tensor();
  EXPECT_EQ(mvncLoadTensor(graph, input.data(),
                           static_cast<unsigned int>(input.size() * 2),
                           nullptr),
            MVNC_INVALID_PARAMETERS);
  // Both the double dealloc and the load on the dead handle are flagged.
  EXPECT_EQ(violations(ViolationKind::kUseAfterDealloc), 2u);
}

TEST_F(MvncTest, CloseDeviceInvalidatesItsGraphs) {
  void* dev = open_first();
  void* graph = allocate(dev);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_OK);
  void* out;
  unsigned int len;
  EXPECT_EQ(mvncGetResult(graph, &out, &len, nullptr),
            MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(violations(ViolationKind::kUseAfterClose), 1u);
}

TEST_F(MvncTest, FunctionalNetworkValidatesShape) {
  void* dev = open_first();
  void* graph = allocate(dev);
  const auto net = ncsw::nn::build_tiny_googlenet({32, 10});
  const auto wf = ncsw::nn::init_msra(net, 1);
  const auto wh = ncsw::nn::to_fp16(wf);
  EXPECT_TRUE(set_functional_network(graph, &net, &wh));
  // Mismatched input size is rejected.
  const auto bad = ncsw::nn::build_tiny_googlenet({48, 10});
  EXPECT_FALSE(set_functional_network(graph, &bad, &wh));
  // Half-attached is rejected.
  EXPECT_FALSE(set_functional_network(graph, &net, nullptr));
  // Detach is fine.
  EXPECT_TRUE(set_functional_network(graph, nullptr, nullptr));
}

TEST_F(MvncTest, FunctionalOutputIsRealSoftmax) {
  void* dev = open_first();
  void* graph = allocate(dev);
  const auto net = ncsw::nn::build_tiny_googlenet({32, 10});
  const auto wf = ncsw::nn::init_msra(net, 1);
  const auto wh = ncsw::nn::to_fp16(wf);
  ASSERT_TRUE(set_functional_network(graph, &net, &wh));
  auto input = input_tensor();
  for (auto& h : input) h = ncsw::fp16::half(0.25f);
  ASSERT_EQ(mvncLoadTensor(graph, input.data(),
                           static_cast<unsigned int>(input.size() * 2),
                           nullptr),
            MVNC_OK);
  void* out = nullptr;
  unsigned int len = 0;
  ASSERT_EQ(mvncGetResult(graph, &out, &len, nullptr), MVNC_OK);
  const auto* probs = static_cast<const ncsw::fp16::half*>(out);
  double sum = 0;
  for (unsigned int i = 0; i < len / 2; ++i) {
    sum += static_cast<float>(probs[i]);
  }
  EXPECT_NEAR(sum, 1.0, 0.01);
}

TEST_F(MvncTest, UnpluggedDeviceReturnsGone) {
  void* dev = open_first();
  void* graph = allocate(dev);
  auto input = input_tensor();
  const auto bytes = static_cast<unsigned int>(input.size() * 2);
  ASSERT_EQ(mvncLoadTensor(graph, input.data(), bytes, nullptr), MVNC_OK);

  ncsw::mvnc::device_of(dev)->unplug();
  void* out;
  unsigned int len;
  EXPECT_EQ(mvncGetResult(graph, &out, &len, nullptr), MVNC_GONE);
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, nullptr), MVNC_GONE);
  // GONE is a device loss, not caller misuse; only the speculative final
  // GetResult (nothing outstanding any more) is a contract violation.
  EXPECT_EQ(mvncGetResult(graph, &out, &len, nullptr), MVNC_NO_DATA);
  EXPECT_EQ(ncsw::check::verifier().total(), 1u);
  EXPECT_EQ(violations(ViolationKind::kUnmatchedGetResult), 1u);
}

TEST_F(MvncTest, HostResetInvalidatesEverything) {
  void* dev = open_first();
  void* graph = allocate(dev);
  HostConfig cfg;
  cfg.devices = 1;
  host_reset(cfg);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(mvncDeallocateGraph(graph), MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(host_device_count(), 1);
}

// ---- payload-free timed loads ----------------------------------------------

/// Everything a timed load must leave exactly as a zero-payload
/// mvncLoadTensor would: call results, tickets, host cursors, the call
/// counter, the Chrome trace and the verifier's verdict.
struct ScriptRun {
  std::vector<int> statuses;
  std::vector<std::array<double, 4>> tickets;  // seq, issue, input_done, ready
  std::vector<double> cursors;
  std::uint64_t loads = 0;
  std::string trace;
  std::uint64_t violations = 0;
};

std::vector<std::uint8_t> functional_tiny_blob() {
  static const auto net = ncsw::nn::build_tiny_googlenet({32, 10});
  static const auto wh = ncsw::nn::to_fp16(ncsw::nn::init_msra(net, 1));
  static const auto blob = ncsw::graphc::serialize_package(
      compile(net, Precision::kFP16), &net, &wh);
  return blob;
}

/// Rounds of two pipelined loads and their drain on one strict-checked
/// stick, each round started 10 ms after the last from t = 2 s (after
/// boot and allocation), until the stick goes or the rounds run out.
ScriptRun run_script(bool timed, const std::vector<std::uint8_t>& blob,
                     const ncsw::sim::FaultPlan& faults) {
  HostConfig cfg;
  cfg.devices = 1;
  cfg.faults = faults;
  cfg.check = ncsw::check::CheckMode::kStrict;
  host_reset(cfg);
  auto& tr = ncsw::util::tracer();
  tr.reset();
  tr.set_enabled(true);
  auto& loads = ncsw::util::metrics().counter("mvnc.load_tensor.calls");
  const std::uint64_t loads_before = loads.value();

  ScriptRun run;
  void* dev = nullptr;
  EXPECT_EQ(mvncOpenDevice("/sim/ncs0", &dev), MVNC_OK);
  void* graph = nullptr;
  EXPECT_EQ(mvncAllocateGraph(dev, &graph, blob.data(),
                              static_cast<unsigned int>(blob.size())),
            MVNC_OK);
  EXPECT_LT(host_time(graph).value(), 2.0);
  const std::vector<ncsw::fp16::half> zeros(3 * 32 * 32);
  auto load = [&] {
    const mvncStatus st =
        timed ? load_tensor_timed(graph, nullptr)
              : mvncLoadTensor(graph, zeros.data(),
                               static_cast<unsigned int>(zeros.size() * 2),
                               nullptr);
    run.statuses.push_back(st);
    run.cursors.push_back(host_time(graph).value());
    return st;
  };
  bool gone = false;
  for (int round = 0; round < 40 && !gone; ++round) {
    set_host_time(graph, 2.0 + 0.01 * round);
    for (int k = 0; k < 2 && !gone; ++k) gone = load() == MVNC_GONE;
    for (int left = pending_results(graph); left > 0; --left) {
      void* out = nullptr;
      unsigned int len = 0;
      const mvncStatus st = mvncGetResult(graph, &out, &len, nullptr);
      run.statuses.push_back(st);
      run.cursors.push_back(host_time(graph).value());
      if (st != MVNC_OK) break;
      const auto t = last_ticket(graph).value();
      run.tickets.push_back({static_cast<double>(t.seq), t.issue,
                             t.input_done, t.result_ready});
    }
  }
  run.loads = loads.value() - loads_before;
  run.trace = tr.to_json();
  run.violations = ncsw::check::verifier().total();
  tr.set_enabled(false);
  tr.reset();
  return run;
}

void expect_same_timing(const std::vector<std::uint8_t>& blob) {
  ncsw::sim::FaultPlan faults;
  faults.add(0, ncsw::sim::FaultKind::kBusyStorm, 2.05, 0.03);
  faults.add(0, ncsw::sim::FaultKind::kUsbTransferError, 2.12, 0.03);
  faults.add(0, ncsw::sim::FaultKind::kDetach, 2.3, 0.2);
  for (const auto& plan : {ncsw::sim::FaultPlan{}, faults}) {
    const ScriptRun payload = run_script(false, blob, plan);
    const ScriptRun timed = run_script(true, blob, plan);
    EXPECT_EQ(timed.statuses, payload.statuses);
    EXPECT_EQ(timed.tickets, payload.tickets);
    EXPECT_EQ(timed.cursors, payload.cursors);
    EXPECT_EQ(timed.loads, payload.loads);
    EXPECT_EQ(timed.trace, payload.trace);
    EXPECT_EQ(timed.violations, 0u);
    EXPECT_EQ(payload.violations, 0u);
    if (plan.empty()) {
      EXPECT_EQ(payload.tickets.size(), 80u);
    } else {
      // The script met every fault.
      for (const mvncStatus st : {MVNC_BUSY, MVNC_ERROR, MVNC_GONE}) {
        EXPECT_NE(std::find(payload.statuses.begin(), payload.statuses.end(),
                            st),
                  payload.statuses.end())
            << st;
      }
    }
  }
}

TEST_F(MvncTest, TimedLoadMatchesZeroPayloadLoadOnTimingOnlyGraph) {
  expect_same_timing(tiny_blob());
}

TEST_F(MvncTest, TimedLoadMatchesZeroPayloadLoadOnFunctionalGraph) {
  expect_same_timing(functional_tiny_blob());
}

TEST_F(MvncTest, TimedLoadRejectsBadAndStaleHandles) {
  int not_a_handle = 0;
  EXPECT_EQ(load_tensor_timed(nullptr, nullptr), MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(load_tensor_timed(&not_a_handle, nullptr),
            MVNC_INVALID_PARAMETERS);
  void* dev = open_first();
  void* graph = allocate(dev);
  ASSERT_EQ(mvncDeallocateGraph(graph), MVNC_OK);
  EXPECT_EQ(load_tensor_timed(graph, nullptr), MVNC_INVALID_PARAMETERS);
  void* other = allocate(dev);

  // A detach + replug reboots the firmware: the old handle is stale.
  HostConfig cfg;
  cfg.devices = 1;
  cfg.faults.add(0, ncsw::sim::FaultKind::kDetach, 2.0, 0.5);
  cfg.check = ncsw::check::CheckMode::kLog;
  host_reset(cfg);
  EXPECT_EQ(load_tensor_timed(other, nullptr), MVNC_INVALID_PARAMETERS);
  dev = open_first();
  graph = allocate(dev);
  set_host_time(graph, 2.1);
  EXPECT_EQ(load_tensor_timed(graph, nullptr), MVNC_GONE);
  ASSERT_TRUE(replug_device(dev, 3.0));
  EXPECT_EQ(load_tensor_timed(graph, nullptr), MVNC_INVALID_PARAMETERS);
  const auto input = input_tensor();
  EXPECT_EQ(mvncLoadTensor(graph, input.data(),
                           static_cast<unsigned int>(input.size() * 2),
                           nullptr),
            MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, TimedAndPayloadLoadsShareTheFifoInOrder) {
  void* dev = open_first();
  const auto blob = functional_tiny_blob();
  void* graph = nullptr;
  ASSERT_EQ(mvncAllocateGraph(dev, &graph, blob.data(),
                              static_cast<unsigned int>(blob.size())),
            MVNC_OK);
  ASSERT_GE(graph_device(graph)->config().fifo_depth, 2);

  const auto net = ncsw::nn::build_tiny_googlenet({32, 10});
  const auto wh = ncsw::nn::to_fp16(ncsw::nn::init_msra(net, 1));
  ncsw::tensor::TensorH input(net.layer(net.input_id()).out_shape);
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    input.data()[i] = ncsw::fp16::half(static_cast<float>(i % 17) / 8 - 1);
  }
  ncsw::nn::ExecOptions ref;
  ref.reference_kernels = true;
  const auto expected = ncsw::nn::run_forward(net, wh, input, ref).output;
  const auto bytes =
      static_cast<unsigned int>(input.numel() * sizeof(ncsw::fp16::half));

  int marks[4];
  auto get = [&](void* want_user, bool want_payload) {
    void* out = nullptr;
    unsigned int len = 0;
    void* user = nullptr;
    ASSERT_EQ(mvncGetResult(graph, &out, &len, &user), MVNC_OK);
    EXPECT_EQ(user, want_user);
    ASSERT_EQ(len, 10u * sizeof(ncsw::fp16::half));
    const auto* got = static_cast<const std::uint16_t*>(out);
    for (int c = 0; c < 10; ++c) {
      const std::uint16_t want =
          want_payload ? expected.data()[c].bits() : std::uint16_t{0};
      EXPECT_EQ(got[c], want) << "class " << c;
    }
  };
  // timed, payload / payload, timed: each result is its own entry.
  ASSERT_EQ(load_tensor_timed(graph, &marks[0]), MVNC_OK);
  ASSERT_EQ(mvncLoadTensor(graph, input.data(), bytes, &marks[1]), MVNC_OK);
  get(&marks[0], false);
  ASSERT_EQ(mvncLoadTensor(graph, input.data(), bytes, &marks[2]), MVNC_OK);
  get(&marks[1], true);
  ASSERT_EQ(load_tensor_timed(graph, &marks[3]), MVNC_OK);
  get(&marks[2], true);
  get(&marks[3], false);
  EXPECT_EQ(pending_results(graph), 0);
}

TEST_F(MvncTest, TimedLoadsBesideConcurrentClassifyWorkers) {
  // Two sticks classify with real payloads on their own host threads
  // while two more take timed loads from this test's threads; all four
  // handles share one parsed graph file. Run under TSan.
  ncsw::dataset::DatasetConfig dc;
  dc.num_classes = 6;
  const ncsw::dataset::SyntheticImageNet data(dc);
  const auto bundle = ncsw::core::ModelBundle::tiny_functional(data, {32, 6});
  ncsw::core::VpuTargetConfig cfg;
  cfg.devices = 4;
  cfg.check = ncsw::check::CheckMode::kStrict;
  ncsw::core::VpuTarget vpu(bundle, cfg);
  ASSERT_EQ(graph_device(vpu.graph_handle(0))->graph(),
            graph_device(vpu.graph_handle(3))->graph());

  ncsw::core::Preprocessor prep;
  prep.input_size = 32;
  prep.means = data.means();
  const std::vector<ncsw::tensor::TensorF> inputs = {
      prep(data.sample(0, 0).image), prep(data.sample(1, 1).image)};
  const auto serial = vpu.classify(inputs);  // sticks 0 and 1

  std::vector<std::thread> timed;
  std::vector<int> bad_results(2, 0);
  for (int d = 2; d < 4; ++d) {
    timed.emplace_back([&, d] {
      void* graph = vpu.graph_handle(d);
      for (int i = 0; i < 50; ++i) {
        void* out = nullptr;
        unsigned int len = 0;
        if (load_tensor_timed(graph, nullptr) != MVNC_OK ||
            mvncGetResult(graph, &out, &len, nullptr) != MVNC_OK ||
            len != 6 * sizeof(ncsw::fp16::half) ||
            *static_cast<const std::uint16_t*>(out) != 0) {
          ++bad_results[static_cast<std::size_t>(d - 2)];
        }
      }
    });
  }
  for (int round = 0; round < 5; ++round) {
    const auto preds = vpu.classify(inputs);
    ASSERT_EQ(preds.size(), serial.size());
    for (std::size_t i = 0; i < preds.size(); ++i) {
      EXPECT_EQ(preds[i].probs, serial[i].probs);
    }
  }
  for (auto& t : timed) t.join();
  EXPECT_EQ(bad_results, std::vector<int>(2, 0));
  EXPECT_EQ(ncsw::check::verifier().total(), 0u);
}

}  // namespace
