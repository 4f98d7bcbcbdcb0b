#ifndef ROADNET_SERVER_EVENT_LOOP_H_
#define ROADNET_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/socket.h"
#include "server/wire.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace roadnet {

// Asynchronous server front-end: a small pool of epoll event loops, each
// owning a shard of the connections. Replaces the thread-per-connection
// handlers so one process holds tens of thousands of sockets with a
// handful of threads.
//
// Ownership rules (the contract everything below hangs off):
//   - A connection belongs to exactly one loop for its whole life. Only
//     that loop's thread reads it, writes it, or closes it.
//   - Complete request frames are handed to FrameHandler::OnFrame on the
//     loop thread. The handler replies either inline (Send from inside
//     OnFrame) or later from another thread by Post()ing a closure to
//     the owning loop — the closure runs on the loop thread and may then
//     Send. Post is the only cross-thread entry point; it wakes the
//     loop via an eventfd.
//   - A ConnRef {loop, slot, generation} names a connection across
//     threads. Slots are recycled; the generation check makes a ref to
//     a closed connection fail Send harmlessly instead of writing into
//     whoever inherited the slot.
//
// Backpressure policy: every connection has a write queue (encoded reply
// bytes not yet accepted by the kernel). Above
// EventLoopOptions::write_soft_cap the loop stops reading that
// connection — buffered requests stay buffered, EPOLLIN interest is
// dropped — and resumes below half the cap. The handler additionally
// sees the queue size in FrameMeta and sheds with OVERLOADED above its
// own hard cap, so a client that never reads replies cannot pin memory.

// Incremental reassembly of the [u32 body_length][body] frame stream
// from arbitrarily fragmented reads. This is the state machine behind
// edge-triggered reads; the byte-dribble fuzz test drives it directly.
class FrameAssembler {
 public:
  FrameAssembler() = default;
  explicit FrameAssembler(uint32_t max_body) : max_body_(max_body) {}

  // Appends raw bytes from the socket.
  void Feed(const char* data, size_t size) { buffer_.append(data, size); }

  enum class Result {
    kFrame,     // *body holds the next complete frame body
    kNeedMore,  // no complete frame buffered yet
    kError,     // length prefix exceeds max_body; the stream is garbage
  };

  // Extracts the next complete frame. Call in a loop after Feed until it
  // stops returning kFrame. kError is sticky: the connection should be
  // closed, not resynchronized.
  Result Next(std::string* body);

  // Bytes buffered but not yet returned as frames.
  size_t BufferedBytes() const { return buffer_.size() - head_; }

 private:
  uint32_t max_body_ = wire::kMaxFrameBytes;
  std::string buffer_;
  size_t head_ = 0;  // consumed prefix of buffer_
  bool error_ = false;
};

// Names one connection across threads; see the ownership rules above.
struct ConnRef {
  uint32_t loop = 0;
  uint32_t slot = 0;
  uint64_t generation = 0;
};

// Per-frame context handed to OnFrame. Timestamps are steady_clock
// nanoseconds since EventLoopOptions::epoch (the tracer's axis).
struct FrameMeta {
  bool first_frame = false;   // first frame of this connection
  uint64_t accept_ns = 0;     // when accept(2) returned this socket
  uint64_t registered_ns = 0; // when the loop began polling the socket
  // When the frame's first byte was read: the read that fed an empty
  // assembler, or the previous frame's extraction if this one's bytes
  // were already buffered behind it. Never earlier, so the span from
  // here to frame_end_ns excludes the client's idle time between frames.
  uint64_t read_start_ns = 0;
  uint64_t frame_end_ns = 0;  // when the frame was completely buffered
  size_t write_queue_bytes = 0;  // this connection's unflushed reply bytes
  // Which pass of the loop over its ready events (one per epoll_wait
  // return) delivered the frame; frames handled in one pass share it.
  uint64_t wake = 0;
};

// The loops' upcall interface, implemented by QueryServer.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  // One complete frame body, on the owning loop's thread. Return false
  // to close the connection (protocol garbage). Frames already buffered
  // behind a false return are discarded with the connection.
  virtual bool OnFrame(const ConnRef& conn, std::string&& body,
                       const FrameMeta& meta) = 0;
};

struct EventLoopOptions {
  size_t num_loops = 2;
  // Pool-wide cap on simultaneously open connections; accepts beyond it
  // are closed immediately and counted as rejected.
  size_t max_connections = 64;
  // Request frames above this are a protocol error (connection closed).
  uint32_t max_frame_bytes = wire::kMaxFrameBytes;
  // Stop reading a connection whose write queue exceeds this; resume at
  // half. 0 disables the pause (the handler's hard cap still applies).
  size_t write_soft_cap = 256u << 10;
  // Close connections idle (no bytes read or written) this long.
  // 0 disables reaping.
  uint64_t idle_timeout_ms = 0;
  // SO_SNDBUF for accepted sockets (0 = kernel default). Bounds kernel
  // memory per connection at high fan-in, and makes the write-queue
  // caps bite at a predictable depth instead of after the kernel's
  // auto-tuned buffer (which can absorb megabytes) fills.
  int sndbuf_bytes = 0;
  // Zero point for FrameMeta timestamps; share the tracer's epoch.
  std::chrono::steady_clock::time_point epoch{};
};

// The pool. Start spawns the loop threads and registers the listening
// socket in every loop's epoll set with EPOLLEXCLUSIVE, so the kernel
// shards accepts across loops without a dedicated accept thread.
class EventLoopPool {
 public:
  EventLoopPool(const EventLoopOptions& options, FrameHandler* handler);
  ~EventLoopPool();

  EventLoopPool(const EventLoopPool&) = delete;
  EventLoopPool& operator=(const EventLoopPool&) = delete;

  // Takes ownership of the listening socket and starts the loops.
  bool Start(ScopedFd listen_fd, std::string* error);

  // Deregisters and closes the listening socket in every loop; no new
  // connections are accepted once this returns. Established connections
  // keep running.
  void StopAccepting();

  // Blocks until every connection's write queue is empty or the timeout
  // elapses (a peer that stopped reading can pin its queue forever).
  // Returns true if fully flushed.
  bool FlushAndWait(std::chrono::milliseconds timeout);

  // Closes every connection and joins the loop threads. Closures still
  // queued via Post are run (on the caller) after the join, so cleanup
  // closures always execute. Idempotent.
  void Stop();

  // Runs `fn` on the given loop's thread; the only cross-thread way to
  // reach a connection. Closures posted to a stopped pool run inline.
  void Post(uint32_t loop, std::function<void()> fn);

  // Queues one frame ([u32 length] prefix added here) on the
  // connection's write queue and flushes what the kernel will take.
  // Must be called on the owning loop's thread (from OnFrame or a
  // posted closure). False if the connection is gone.
  bool Send(const ConnRef& conn, const std::string& body);

  size_t NumLoops() const { return loops_.size(); }

  struct PoolStats {
    uint64_t accepted = 0;          // lifetime
    uint64_t rejected = 0;          // lifetime, closed at the cap
    uint64_t idle_reaped = 0;       // lifetime
    uint64_t write_queue_bytes = 0; // gauge, summed over loops
    uint64_t open_connections = 0;  // gauge
    std::vector<uint64_t> loop_connections;  // gauge, per loop
  };
  PoolStats Stats() const;

 private:
  struct Conn;
  struct Loop;

  void LoopMain(Loop* loop);
  void HandleAccept(Loop* loop);
  // Out of descriptors: accepts one pending connection on the reserve fd
  // and closes it at once. False if there was nothing to take (errno
  // EAGAIN) or no reserve to spend (errno EMFILE/ENFILE).
  bool RejectWithReserveFd(Loop* loop) ROADNET_REQUIRES(accept_mu_);
  // Adds the listen fd to the loop's epoll set (EPOLLEXCLUSIVE when the
  // kernel has it).
  bool WatchListen(Loop* loop);
  // Last resort when the reserve fd is lost too: stop polling the listen
  // fd on this loop for a while instead of waking on it continuously.
  void PauseListen(Loop* loop);
  void ProcessInput(Loop* loop, uint32_t slot);
  void FlushConn(Loop* loop, Conn* conn);
  void CloseConn(Loop* loop, uint32_t slot);
  void RunPosted(Loop* loop);
  void AdvanceWheel(Loop* loop, uint64_t now_ns);
  void ScheduleIdle(Loop* loop, uint32_t slot);
  uint64_t NowNs() const;

  EventLoopOptions options_;
  FrameHandler* handler_;
  ScopedFd listen_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<size_t> total_conns_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> accepting_{false};
  // accept(2) is serialized across loops, so the reserve-fd dance (close
  // the reserve, accept, close, reopen) cannot lose the reserve's slot to
  // a sibling loop's accept. Uncontended in practice: EPOLLEXCLUSIVE
  // wakes one loop per pending connection.
  Mutex accept_mu_;
  // Held open so that, once the process runs out of descriptors, closing
  // it frees a slot to accept-and-close a pending connection with.
  ScopedFd reserve_fd_ ROADNET_GUARDED_BY(accept_mu_);
};

}  // namespace roadnet

#endif  // ROADNET_SERVER_EVENT_LOOP_H_
