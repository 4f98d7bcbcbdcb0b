// EventLoopPool in isolation: backpressure pause/resume, cross-thread
// Post/Send, idle reaping, and the connection gauges — driven by a toy
// FrameHandler so the tests see the loop mechanics without a
// QueryServer in the way.

#include "server/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/socket.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// Connects to 127.0.0.1:port, optionally pinning SO_RCVBUF before the
// handshake so the advertised window stays small (keeps the kernel from
// absorbing megabytes of replies and hiding the server's write queue).
ScopedFd RawConnect(uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return ScopedFd(fd);
}

// Replies to every frame with `reply_bytes` of filler, inline from
// OnFrame (the path a loop-thread completion takes).
class BigReplyHandler : public FrameHandler {
 public:
  explicit BigReplyHandler(size_t reply_bytes) : reply_(reply_bytes, 'r') {}
  void BindPool(EventLoopPool* pool) { pool_ = pool; }

  bool OnFrame(const ConnRef& conn, std::string&&,
               const FrameMeta&) override {
    frames_.fetch_add(1);
    return pool_->Send(conn, reply_);
  }

  uint64_t Frames() const { return frames_.load(); }

 private:
  EventLoopPool* pool_ = nullptr;
  std::string reply_;
  std::atomic<uint64_t> frames_{0};
};

// Banks frames instead of replying; the test thread later Posts the
// replies — the deferred-completion path a dispatcher thread uses.
class BankingHandler : public FrameHandler {
 public:
  void BindPool(EventLoopPool* pool) { pool_ = pool; }

  bool OnFrame(const ConnRef& conn, std::string&& body,
               const FrameMeta& meta) override {
    std::lock_guard<std::mutex> lock(mu_);
    banked_.push_back({conn, std::move(body)});
    first_frame_seen_ = first_frame_seen_ || meta.first_frame;
    return true;
  }

  std::vector<std::pair<ConnRef, std::string>> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(banked_);
  }
  bool SawFirstFrame() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_frame_seen_;
  }

 private:
  EventLoopPool* pool_ = nullptr;
  std::mutex mu_;
  std::vector<std::pair<ConnRef, std::string>> banked_;
  bool first_frame_seen_ = false;
};

TEST(EventLoopPool, BackpressurePausesReadsAndResumesAfterDrain) {
  constexpr size_t kReplyBytes = 256u << 10;
  BigReplyHandler handler(kReplyBytes);
  EventLoopOptions options;
  options.num_loops = 1;
  options.max_connections = 4;
  options.write_soft_cap = 16u << 10;
  options.sndbuf_bytes = 4096;  // kernel can't hide the queue
  EventLoopPool pool(options, &handler);
  handler.BindPool(&pool);
  std::string error;
  uint16_t port = 0;
  ScopedFd listen = ListenTcp(0, &port, &error);
  ASSERT_TRUE(listen.valid()) << error;
  ASSERT_TRUE(pool.Start(std::move(listen), &error)) << error;

  ScopedFd client = RawConnect(port, /*rcvbuf=*/4096);
  constexpr int kFrames = 5;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(WriteFrame(client.get(), "ping"));
  }

  // The first frame's 256K reply blows past the 16K soft cap, so the
  // loop must stop reading: exactly one frame handled, bytes pinned in
  // the write queue.
  for (int spin = 0; spin < 200 && pool.Stats().write_queue_bytes == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(pool.Stats().write_queue_bytes, 0u);
  EXPECT_EQ(handler.Frames(), 1u);

  // Draining the client side lets the queue empty; the loop resumes
  // reading and the remaining frames flow.
  for (int i = 0; i < kFrames; ++i) {
    std::string reply;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(client.get(), &reply,
                          static_cast<uint32_t>(2 * kReplyBytes),
                          &clean_eof))
        << "reply " << i << (clean_eof ? " (eof)" : "");
    EXPECT_EQ(reply.size(), kReplyBytes);
  }
  EXPECT_EQ(handler.Frames(), static_cast<uint64_t>(kFrames));
  for (int spin = 0; spin < 200 && pool.Stats().write_queue_bytes != 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pool.Stats().write_queue_bytes, 0u);

  pool.StopAccepting();
  pool.Stop();
}

TEST(EventLoopPool, PostedClosuresSendFromAnotherThread) {
  BankingHandler handler;
  EventLoopOptions options;
  options.num_loops = 2;
  EventLoopPool pool(options, &handler);
  handler.BindPool(&pool);
  std::string error;
  uint16_t port = 0;
  ScopedFd listen = ListenTcp(0, &port, &error);
  ASSERT_TRUE(listen.valid()) << error;
  ASSERT_TRUE(pool.Start(std::move(listen), &error)) << error;

  ScopedFd client = RawConnect(port);
  ASSERT_TRUE(WriteFrame(client.get(), "hello"));
  ASSERT_TRUE(WriteFrame(client.get(), "world"));

  std::vector<std::pair<ConnRef, std::string>> banked;
  for (int spin = 0; spin < 400 && banked.size() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto more = handler.Take();
    banked.insert(banked.end(), more.begin(), more.end());
  }
  ASSERT_EQ(banked.size(), 2u);
  EXPECT_EQ(banked[0].second, "hello");
  EXPECT_EQ(banked[1].second, "world");
  EXPECT_TRUE(handler.SawFirstFrame());

  // Reply from this (non-loop) thread via Post: the closure runs on the
  // owning loop and may touch the connection.
  for (auto& [conn, body] : banked) {
    std::string reply = "re:" + body;
    pool.Post(conn.loop, [&pool, conn, reply] { pool.Send(conn, reply); });
  }
  std::string reply;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(client.get(), &reply, 1024, &clean_eof));
  EXPECT_EQ(reply, "re:hello");
  ASSERT_TRUE(ReadFrame(client.get(), &reply, 1024, &clean_eof));
  EXPECT_EQ(reply, "re:world");

  // A ConnRef with a stale generation must fail Send harmlessly.
  ConnRef stale = banked[0].first;
  stale.generation += 1;
  std::atomic<bool> sent{true};
  pool.Post(stale.loop, [&pool, stale, &sent] {
    sent.store(pool.Send(stale, "never"));
  });
  for (int spin = 0; spin < 200 && sent.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(sent.load());

  pool.StopAccepting();
  pool.Stop();
}

TEST(EventLoopPool, ReapsIdleConnectionsButNotActiveOnes) {
  BigReplyHandler handler(4);
  EventLoopOptions options;
  options.num_loops = 1;
  options.idle_timeout_ms = 100;
  EventLoopPool pool(options, &handler);
  handler.BindPool(&pool);
  std::string error;
  uint16_t port = 0;
  ScopedFd listen = ListenTcp(0, &port, &error);
  ASSERT_TRUE(listen.valid()) << error;
  ASSERT_TRUE(pool.Start(std::move(listen), &error)) << error;

  ScopedFd idle = RawConnect(port);
  ScopedFd active = RawConnect(port);

  // Keep one connection talking for ~6 idle timeouts while the other
  // stays silent: only the silent one may be reaped.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(WriteFrame(active.get(), "tick"));
    std::string reply;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(active.get(), &reply, 1024, &clean_eof));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // The idle peer sees a clean close.
  const timeval tv{2, 0};
  ::setsockopt(idle.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[8];
  EXPECT_EQ(::recv(idle.get(), buf, sizeof(buf), 0), 0);

  const EventLoopPool::PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.idle_reaped, 1u);
  EXPECT_EQ(stats.open_connections, 1u);
  EXPECT_EQ(stats.accepted, 2u);

  pool.StopAccepting();
  pool.Stop();
}

TEST(EventLoopPool, GaugesTrackConnectionsPerLoop) {
  BigReplyHandler handler(4);
  EventLoopOptions options;
  options.num_loops = 2;
  options.max_connections = 8;
  EventLoopPool pool(options, &handler);
  handler.BindPool(&pool);
  std::string error;
  uint16_t port = 0;
  ScopedFd listen = ListenTcp(0, &port, &error);
  ASSERT_TRUE(listen.valid()) << error;
  ASSERT_TRUE(pool.Start(std::move(listen), &error)) << error;

  std::vector<ScopedFd> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(RawConnect(port));
    // One round trip pins the accept (EPOLLEXCLUSIVE may still be
    // parking the connection until its first readable event).
    ASSERT_TRUE(WriteFrame(clients.back().get(), "hi"));
    std::string reply;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(clients.back().get(), &reply, 64, &clean_eof));
  }

  const EventLoopPool::PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.accepted, 6u);
  EXPECT_EQ(stats.open_connections, 6u);
  ASSERT_EQ(stats.loop_connections.size(), 2u);
  EXPECT_EQ(stats.loop_connections[0] + stats.loop_connections[1], 6u);

  clients.clear();  // hang up; the loops notice EOF
  for (int spin = 0; spin < 400 && pool.Stats().open_connections != 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pool.Stats().open_connections, 0u);

  pool.StopAccepting();
  pool.Stop();
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// Lowers this process's soft RLIMIT_NOFILE for its lifetime.
class ScopedSoftFdLimit {
 public:
  explicit ScopedSoftFdLimit(rlim_t soft) {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    rlimit low = saved_;
    low.rlim_cur = soft;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  }
  ~ScopedSoftFdLimit() { Restore(); }
  ScopedSoftFdLimit(const ScopedSoftFdLimit&) = delete;
  ScopedSoftFdLimit& operator=(const ScopedSoftFdLimit&) = delete;

  void Restore() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

 private:
  rlimit saved_{};
};

// Runs kPending connects against a two-loop pool while this process's
// soft descriptor limit is `limit(lowest_free)`, and checks the loops
// stay quiet and keep serving an existing connection. Reports the pool's
// rejections over that second and its accepts once the limit is back
// (waiting up to 2 s for `want_accepted` of them).
struct ExhaustionOutcome {
  uint64_t rejected = 0;
  uint64_t accepted_after_restore = 0;
  std::vector<ScopedFd> pending;
};

ExhaustionOutcome ConnectWhileOutOfDescriptors(int (*limit)(int lowest_free),
                                               uint64_t want_accepted) {
  constexpr size_t kPending = 32;
  ExhaustionOutcome out;
  BigReplyHandler handler(16);
  EventLoopOptions options;
  options.num_loops = 2;
  options.max_connections = 64;
  EventLoopPool pool(options, &handler);
  handler.BindPool(&pool);
  std::string error;
  uint16_t port = 0;
  ScopedFd listen = ListenTcp(0, &port, &error);
  EXPECT_TRUE(listen.valid()) << error;
  EXPECT_TRUE(pool.Start(std::move(listen), &error)) << error;

  ScopedFd existing = RawConnect(port);
  auto round_trip = [&existing] {
    std::string reply;
    return WriteFrame(existing.get(), "ping") &&
           ReadFrame(existing.get(), &reply, 1024) && reply.size() == 16;
  };
  EXPECT_TRUE(round_trip());

  // Client sockets are made while descriptors are still free; connect()
  // needs none, so they can queue on the backlog after the limit drops.
  for (size_t i = 0; i < kPending; ++i) {
    out.pending.emplace_back(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    EXPECT_TRUE(out.pending.back().valid());
  }
  const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  EXPECT_GE(lowest_free, 0);
  ::close(lowest_free);
  ScopedSoftFdLimit low(static_cast<rlim_t>(limit(lowest_free)));
  EXPECT_LT(::open("/dev/null", O_RDONLY | O_CLOEXEC), 0);

  const uint64_t rejected_before = pool.Stats().rejected;
  const uint64_t accepted_before = pool.Stats().accepted;
  const double cpu_before = ProcessCpuSeconds();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (ScopedFd& fd : out.pending) {
    EXPECT_EQ(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  std::this_thread::sleep_for(std::chrono::seconds(1));
  // A loop that leaves the connections on the level-triggered backlog
  // and polls it again wakes at once, forever: about one core per loop
  // for the whole second.
  EXPECT_LT(ProcessCpuSeconds() - cpu_before, 0.25);
  EXPECT_TRUE(round_trip()) << "the existing connection stopped being served";
  out.rejected = pool.Stats().rejected - rejected_before;

  // Descriptors free again: whatever is still on the backlog gets in.
  low.Restore();
  for (int spin = 0;
       spin < 400 && pool.Stats().accepted - accepted_before < want_accepted;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  out.accepted_after_restore = pool.Stats().accepted - accepted_before;
  pool.StopAccepting();
  pool.Stop();
  return out;
}

TEST(EventLoopPool, DescriptorExhaustionShedsWithTheReserveFd) {
  // Limit at the lowest free descriptor: the pool's reserve sits below
  // it, so each pending connection is accepted on the reserve's slot and
  // closed at once.
  ExhaustionOutcome out =
      ConnectWhileOutOfDescriptors([](int lowest_free) { return lowest_free; },
                                   /*want_accepted=*/0);
  EXPECT_GE(out.rejected, out.pending.size());
  EXPECT_EQ(out.accepted_after_restore, 0u);
  for (ScopedFd& fd : out.pending) {
    const timeval one_second{1, 0};
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &one_second,
                 sizeof(one_second));
    char byte = 0;
    EXPECT_EQ(::recv(fd.get(), &byte, 1, 0), 0) << "not closed by the pool";
  }
}

TEST(EventLoopPool, DescriptorExhaustionWithoutReservePausesTheListener) {
  // Limit 3: no descriptor the pool could free (the reserve included) is
  // below it, so nothing can be accepted. The loops must back off rather
  // than spin, and admit the waiting connections once the limit is back.
  ExhaustionOutcome out =
      ConnectWhileOutOfDescriptors([](int) { return 3; },
                                   /*want_accepted=*/32);
  EXPECT_GE(out.rejected, 1u);
  EXPECT_EQ(out.accepted_after_restore, out.pending.size());
}

}  // namespace
}  // namespace roadnet
