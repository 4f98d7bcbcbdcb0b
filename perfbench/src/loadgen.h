// The benchmark's own load generators over loopback TCP.
//
// OpenLoopClient drives Poisson open-loop QUERY2 traffic from one thread
// over a few pipelined connections. Sends are timed with an absolute
// CLOCK_MONOTONIC timerfd (timer slack 1 ns) that wakes the generator up
// to 30 us early, after which it polls its sockets until the send is due,
// so the schedule holds well below a millisecond. Every latency is taken
// from the request's scheduled send time: a stall in the client or the
// server delays the requests behind it and is counted, not hidden. How
// late the generator actually sent is reported as a validity check.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "server/event_loop.h"
#include "server/socket.h"
#include "util/rng.h"

namespace perfbench {

using roadnet::Distance;
using roadnet::VertexId;
using Pair = std::pair<VertexId, VertexId>;

struct ScheduledRequest {
  uint64_t due_ns;  // offset from the phase origin
  uint32_t pair;    // index into the caller's pair list
  bool path;        // path query instead of distance
};

// Poisson arrivals at `rate` per second for `seconds`; `pick` draws the
// pair index and kind of each request from the same seeded stream.
template <typename Pick>
std::vector<ScheduledRequest> PoissonSchedule(roadnet::Rng* rng, double rate,
                                              double seconds, Pick&& pick) {
  std::vector<ScheduledRequest> out;
  out.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  double t = 0;
  while (true) {
    double u = rng->NextDouble();
    if (u <= 0) u = 1e-12;
    t += -std::log(u) / rate;
    if (t >= seconds) break;
    ScheduledRequest r{static_cast<uint64_t>(t * 1e9), 0, false};
    pick(rng, &r);
    out.push_back(r);
  }
  return out;
}

struct Reply {
  uint64_t send_ns = 0;    // absolute steady-clock time the bytes left
  uint64_t recv_ns = 0;    // absolute; 0 = no reply
  Distance distance = 0;
  uint64_t path_hash = 0;
  uint8_t status = 0xFF;
};

struct PhaseResult {
  uint64_t origin_ns = 0;  // absolute time of due_ns == 0
  std::vector<Reply> replies;  // parallel to the schedule
  uint64_t last_recv_ns = 0;
  uint64_t transport_errors = 0;  // closed sockets, bad frames, stray ids
  uint64_t missing = 0;           // no reply by the drain deadline
  uint64_t ok = 0;                // status OK
  uint64_t unreachable = 0;       // status UNREACHABLE
  uint64_t overloaded = 0;        // status OVERLOADED
  uint64_t other_status = 0;      // any other status
  double achieved_qps = 0;  // served replies / (last reply - origin)

  // Latency from the scheduled send, in microseconds, of requests of the
  // given kind that came back OK or UNREACHABLE.
  std::vector<double> LatenciesUs(const std::vector<ScheduledRequest>& sched,
                                  bool path) const;
  // How late each request left against its schedule, in microseconds.
  std::vector<double> LatenessUs(
      const std::vector<ScheduledRequest>& sched) const;
};

uint64_t HashPath(const std::vector<VertexId>& path);

// OK or UNREACHABLE: the server answered the query.
bool IsServed(uint8_t status);

class OpenLoopClient {
 public:
  OpenLoopClient();
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  bool Connect(uint16_t port, size_t connections, std::string* error);

  // Sends the schedule round-robin over the connections and waits for
  // every reply, or until `drain_s` after the last send. The first path
  // reply of each pair is moved into (*first_paths)[pair] when that slot
  // is empty, so the caller can check it after the timed window.
  PhaseResult Run(const std::vector<ScheduledRequest>& schedule,
                  const std::vector<Pair>& pairs, double drain_s,
                  std::vector<std::vector<VertexId>>* first_paths);

  // Closed loop for `seconds`: every connection keeps `depth` distance
  // queries in flight and sends the next one when a reply arrives. The
  // requests actually sent are appended to *sent, with due_ns = their
  // send time, so the result reads like an open-loop phase.
  PhaseResult RunClosed(const std::vector<Pair>& pairs, roadnet::Rng* rng,
                        size_t depth, double seconds,
                        std::vector<ScheduledRequest>* sent);

 private:
  struct Conn {
    roadnet::ScopedFd fd;
    roadnet::FrameAssembler frames;
    std::string out;
    size_t out_head = 0;
    bool want_write = false;
    bool dead = false;
  };

  bool Flush(Conn* c, PhaseResult* result);
  void ReadAvailable(Conn* c, PhaseResult* result, uint64_t id_base,
                     size_t* outstanding,
                     std::vector<std::vector<VertexId>>* first_paths,
                     const std::vector<ScheduledRequest>& schedule);
  void WatchWrite(size_t index, bool on);
  // Clears an expiry of the level-triggered send timer.
  void ConsumeTimer();
  // Counts statuses and missing replies, and the achieved rate.
  static void Finalize(PhaseResult* result);

  std::vector<Conn> conns_;
  roadnet::ScopedFd epoll_;
  roadnet::ScopedFd timer_;
  uint64_t phase_ = 0;
  std::vector<char> read_buf_;
};

// Depth-1 QUERY2 round trips on one connection: client-measured RTTs and
// the server's own receipt-to-completion times, both in microseconds.
struct RttResult {
  std::vector<double> rtt_us;
  std::vector<double> in_server_us;
  // (pair index, distance) of every served reply, for the answer checks.
  std::vector<std::pair<uint32_t, Distance>> answers;
  uint64_t failed = 0;
};
RttResult ClosedLoopRtt(uint16_t port, const std::vector<Pair>& pairs,
                        size_t count);

// Depth-1 round trips of a QUERY2-sized frame through an echo thread the
// benchmark runs itself: loopback plus the client, with no server code.
std::vector<double> EchoRttUs(size_t count);

// Closed-loop KNN_QUERY caller for one thread: it sends the next request
// as soon as the previous reply arrives, until `stop` is set.
struct KnnSample {
  uint64_t send_ns;
  uint64_t recv_ns;
  uint32_t source_index;
  uint32_t entries;
  uint64_t hash;  // HashKnn of the returned entries
  bool ok;
};
uint64_t HashKnn(const std::vector<std::pair<VertexId, Distance>>& entries);
void RunKnnCaller(uint16_t port, const std::vector<VertexId>& sources,
                  uint32_t k, uint64_t seed, const std::atomic<bool>* stop,
                  std::vector<KnnSample>* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
