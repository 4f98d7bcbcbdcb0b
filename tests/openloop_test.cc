// The open-loop driver (server/openloop.h) keeps its arrival schedule
// below a millisecond. Registered RUN_SERIAL: a send-lateness bound is a
// statement about an otherwise idle CPU, which a parallel ctest run does
// not leave the driver's thread.

#include "server/openloop.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "ch/ch_index.h"
#include "hl/hl_index.h"
#include "server/server.h"
#include "server/wire.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// Samples, on its own thread, how late the platform wakes a thread from a
// 100 us sleep (1 ns timer slack, like the driver's). A shared VM stalls
// now and then for milliseconds; a trial the meter saw stalled says
// nothing about the driver's own timing.
class HostStallMeter {
 public:
  HostStallMeter() : thread_([this] { Run(); }) {}
  ~HostStallMeter() {
    stop_.store(true);
    thread_.join();
  }
  HostStallMeter(const HostStallMeter&) = delete;
  HostStallMeter& operator=(const HostStallMeter&) = delete;
  // Worst oversleep since the previous call.
  uint64_t TakeMaxOversleepNs() { return max_.exchange(0); }

 private:
  void Run() {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    while (!stop_.load()) {
      const auto start = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      const auto slept = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
      const uint64_t over =
          slept > 100'000 ? static_cast<uint64_t>(slept) - 100'000 : 0;
      uint64_t seen = max_.load();
      while (over > seen && !max_.compare_exchange_weak(seen, over)) {
      }
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> max_{0};
  std::thread thread_;
};

TEST(OpenLoop, SubMillisecondScheduleHoldsAtTenThousandPerSecond) {
  const Graph g = TestNetwork(300, 107);
  const ChIndex ch(g);
  const HlIndex hl(g, ch);
  QueryServer server(hl, wire::TechniqueId("hl"), g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  OpenLoopOptions olo;
  olo.port = server.Port();
  olo.connections = 2;
  olo.rate = 10000;
  olo.total_requests = 1000;  // a tenth of a second of arrivals
  olo.num_vertices = g.NumVertices();
  // Waits rounded up to whole milliseconds put every trial's median send
  // ~0.5 ms behind schedule at this rate and its p99 near a millisecond.
  // The host adds its own stalls: on a shared VM a sleeping thread was
  // seen oversleeping by 2-250 ms several times a second, and one such
  // stall makes 20+ sends late, which alone carries a short trial's p99.
  // So only trials the stall meter saw undisturbed are judged, the best
  // of up to 20. The meter shares the VM, not the driver's vCPU, so it can
  // miss a stall; fewer than 3 undisturbed trials means the host was too
  // busy for the schedule to say anything about the driver, and the
  // tight bounds are skipped. A looser bound is checked on every run, so
  // a regression cannot hide behind the skip: the median of all trials'
  // p50s, which a stall moves only if it eats half of most trials, stays
  // under 300 us (waits rounded up to whole milliseconds sit near 500 us).
  HostStallMeter meter;
  constexpr uint64_t kStallNs = 500'000;
  uint64_t best_p99 = ~0ull;
  uint64_t best_p50 = ~0ull;
  uint64_t judged = 0;
  std::vector<uint64_t> trial_p50s;
  for (uint64_t trial = 0; trial < 20 && (judged < 3 || best_p99 >= 200'000);
       ++trial) {
    olo.seed = 109 + trial;
    meter.TakeMaxOversleepNs();
    const OpenLoopResult res = RunOpenLoop(olo);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.send_lateness.Count(), olo.total_requests);
    trial_p50s.push_back(res.send_lateness.ValueAtQuantile(0.50));
    if (meter.TakeMaxOversleepNs() >= kStallNs) continue;
    ++judged;
    const uint64_t p99 = res.send_lateness.ValueAtQuantile(0.99);
    if (p99 < best_p99) {
      best_p99 = p99;
      best_p50 = res.send_lateness.ValueAtQuantile(0.50);
    }
  }
  server.Shutdown();
  std::sort(trial_p50s.begin(), trial_p50s.end());
  EXPECT_LT(trial_p50s[trial_p50s.size() / 2], 300'000u)
      << "median send-lateness p50 of " << trial_p50s.size() << " trials";
  if (judged < 3) {
    GTEST_SKIP() << "the host stalled " << 20 - judged << " of 20 trials by >= "
                 << kStallNs << " ns: send lateness not judged";
  }
  EXPECT_LT(best_p50, 50'000u) << judged << " undisturbed trials";
  EXPECT_LT(best_p99, 200'000u) << judged << " undisturbed trials";
}

}  // namespace
}  // namespace roadnet
