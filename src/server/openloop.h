#ifndef ROADNET_SERVER_OPENLOOP_H_
#define ROADNET_SERVER_OPENLOOP_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "server/wire.h"

namespace roadnet {

// Open-loop load driver for the pipelined QUERY2 protocol.
//
// Closed-loop clients (BlockingClient in a loop) measure a server that is
// never behind: each client waits for its reply before sending again, so
// offered load collapses exactly when the server degrades — hiding the
// latency cliff. An open-loop driver instead emits requests on a fixed
// arrival schedule regardless of completions, and measures latency from
// the *scheduled* arrival time, so queueing delay under overload is part
// of the number (the coordinated-omission fix).
//
// One thread drives every connection through epoll: requests are
// assigned round-robin, at most `pipeline` outstanding per connection
// (later arrivals on a full connection stay queued client-side but keep
// their original schedule stamp). The driver sleeps until the next
// arrival with nanosecond timeouts (epoll_pwait2) and 1 ns timer slack on
// its thread for the run, so sends do not bunch into millisecond bursts.
struct OpenLoopOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = 1;
  size_t pipeline = 16;        // max outstanding per connection
  double rate = 1000.0;        // offered load, requests/second, all conns
  bool poisson = true;         // exponential gaps; false = uniform spacing
  uint64_t total_requests = 1000;
  uint64_t seed = 1;
  uint32_t num_vertices = 0;   // source/target drawn below this
  uint8_t technique = 0;       // wire technique id (or kAnyTechnique)
  wire::QueryKind kind = wire::QueryKind::kDistance;
  uint64_t deadline_micros = 0;
  // Record every Nth request's (source, target, distance) so the caller
  // can oracle-check a sample after the run. 0 = no samples.
  uint64_t verify_every = 0;
};

struct OpenLoopResult {
  bool ok = false;             // every scheduled request got a reply
  std::string error;           // first fatal problem when !ok
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t connection_errors = 0;
  std::array<uint64_t, 256> status_counts{};  // indexed by wire::Status
  Histogram latency;           // ns, scheduled arrival -> reply received
  // ns, scheduled arrival -> request handed to send(2): the driver's own
  // timing error (plus any wait for a pipeline slot).
  Histogram send_lateness;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;   // received / wall time
  uint64_t elapsed_ns = 0;

  struct VerifySample {
    uint32_t source = 0;
    uint32_t target = 0;
    uint64_t distance = 0;
    uint8_t status = 0;
  };
  std::vector<VerifySample> samples;
};

// Runs the schedule to completion (or failure) and returns the result.
// Blocking; call from a thread that is not serving the requests.
OpenLoopResult RunOpenLoop(const OpenLoopOptions& options);

}  // namespace roadnet

#endif  // ROADNET_SERVER_OPENLOOP_H_
