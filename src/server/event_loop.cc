#include "server/event_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace roadnet {

namespace {

// epoll_event.data.u64 tags for the two non-connection fds; everything
// else is a connection slot index.
constexpr uint64_t kListenTag = ~uint64_t{0};
constexpr uint64_t kWakeTag = ~uint64_t{0} - 1;

// Connections accepted per listen wakeup before yielding back to the
// event loop (level-triggered, so the remainder re-triggers — possibly
// on a sibling loop, which is the sharding).
constexpr int kAcceptBurst = 256;

constexpr size_t kWheelBuckets = 64;

constexpr uint32_t kConnEvents = EPOLLIN | EPOLLOUT | EPOLLET;

ScopedFd OpenReserveFd() {
  return ScopedFd(::open("/dev/null", O_RDONLY | O_CLOEXEC));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

FrameAssembler::Result FrameAssembler::Next(std::string* body) {
  if (error_) return Result::kError;
  const size_t avail = buffer_.size() - head_;
  if (avail < sizeof(uint32_t)) {
    if (head_ > 0 && avail == 0) {
      buffer_.clear();
      head_ = 0;
    }
    return Result::kNeedMore;
  }
  uint32_t len = 0;
  std::memcpy(&len, buffer_.data() + head_, sizeof(len));
  if (len > max_body_) {
    error_ = true;
    return Result::kError;
  }
  if (avail < sizeof(uint32_t) + len) return Result::kNeedMore;
  body->assign(buffer_, head_ + sizeof(uint32_t), len);
  head_ += sizeof(uint32_t) + len;
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  } else if (head_ > (64u << 10) && head_ > buffer_.size() / 2) {
    buffer_.erase(0, head_);
    head_ = 0;
  }
  return Result::kFrame;
}

// One connection's state machine. Owned (read, written, closed) only by
// its loop's thread; cross-thread access goes through Post + ConnRef.
struct EventLoopPool::Conn {
  ScopedFd fd;
  uint64_t gen = 1;      // bumped on close; ConnRef carries a snapshot
  bool in_use = false;
  bool dead = false;     // fatal I/O or protocol error; close pending
  bool paused = false;   // EPOLLIN dropped: write queue over the soft cap
  bool in_input = false; // ProcessInput active (reentrancy guard)
  bool want_out_edge = false;  // send() hit EAGAIN; wait for EPOLLOUT
  bool first_frame = true;
  uint64_t accept_ns = 0;
  uint64_t registered_ns = 0;
  uint64_t read_start_ns = 0;  // first byte of the frame being assembled
  uint64_t last_activity_ns = 0;
  FrameAssembler assembler;
  std::string out;       // queued reply bytes (length prefixes included)
  size_t out_head = 0;   // flushed prefix of `out`
};

struct EventLoopPool::Loop {
  uint32_t index = 0;
  ScopedFd epoll_fd;
  ScopedFd wake_fd;
  // Nonzero while the listen fd is out of this loop's epoll set after
  // descriptor exhaustion with no reserve left: when to watch it again.
  uint64_t listen_resume_ns = 0;
  uint64_t wake = 0;  // passes over ready events so far (FrameMeta::wake)
  std::thread thread;
  std::vector<Conn> conns;
  std::vector<uint32_t> free_slots;
  // Slots freed during the current event batch; reused only from the
  // next iteration on, so stale events in this batch cannot reach a
  // recycled slot.
  std::vector<uint32_t> freed_pending;
  Mutex post_mu;
  std::vector<std::function<void()>> posted ROADNET_GUARDED_BY(post_mu);
  // Idle-reaping deadline wheel: (slot, generation) entries bucketed by
  // expiry tick. Entries are lazy — closed connections leave stale
  // entries behind that the generation check discards on drain.
  std::array<std::vector<std::pair<uint32_t, uint64_t>>, kWheelBuckets> wheel;
  uint64_t tick_ns = 0;
  uint64_t wheel_tick = 0;
  // Gauges/counters read from other threads.
  std::atomic<uint64_t> open_conns{0};
  std::atomic<uint64_t> write_queue_bytes{0};
  std::atomic<uint64_t> idle_reaped{0};
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};
};

EventLoopPool::EventLoopPool(const EventLoopOptions& options,
                             FrameHandler* handler)
    : options_(options), handler_(handler) {
  if (options_.num_loops == 0) options_.num_loops = 1;
}

EventLoopPool::~EventLoopPool() { Stop(); }

uint64_t EventLoopPool::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - options_.epoch)
          .count());
}

bool EventLoopPool::Start(ScopedFd listen_fd, std::string* error) {
  listen_ = std::move(listen_fd);
  if (!SetNonBlocking(listen_.get())) {
    if (error) *error = "failed to make listen socket nonblocking";
    return false;
  }
  const uint64_t now = NowNs();
  for (size_t i = 0; i < options_.num_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = static_cast<uint32_t>(i);
    loop->epoll_fd = ScopedFd(::epoll_create1(EPOLL_CLOEXEC));
    loop->wake_fd =
        ScopedFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (!loop->epoll_fd.valid() || !loop->wake_fd.valid()) {
      if (error) *error = "failed to create epoll/eventfd";
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_ADD,
                    loop->wake_fd.get(), &ev) != 0) {
      if (error) *error = "failed to register wakeup fd";
      return false;
    }
    if (!WatchListen(loop.get())) {
      if (error) *error = "failed to register listen socket";
      return false;
    }
    if (options_.idle_timeout_ms > 0) {
      const uint64_t timeout_ns = options_.idle_timeout_ms * 1'000'000ull;
      // The wheel spans >= 2x the timeout so a reinserted entry never
      // lands behind the cursor.
      loop->tick_ns = std::max<uint64_t>(1'000'000, timeout_ns / 32);
      loop->wheel_tick = now / loop->tick_ns;
    }
    loops_.push_back(std::move(loop));
  }
  {
    MutexLock lock(accept_mu_);
    reserve_fd_ = OpenReserveFd();
  }
  started_.store(true, std::memory_order_release);
  accepting_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    l->thread = std::thread([this, l] { LoopMain(l); });
  }
  return true;
}

bool EventLoopPool::WatchListen(Loop* loop) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLEXCLUSIVE;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_ADD, listen_.get(), &ev) ==
      0) {
    return true;
  }
  // EPOLLEXCLUSIVE needs Linux >= 4.5; plain shared registration is
  // correct too (every loop may wake; all but one see EAGAIN).
  ev.events = EPOLLIN;
  return ::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_ADD, listen_.get(),
                     &ev) == 0;
}

void EventLoopPool::Post(uint32_t loop, std::function<void()> fn) {
  if (!started_.load(std::memory_order_acquire) || loop >= loops_.size()) {
    fn();  // stopped pool: run inline so cleanup closures never leak
    return;
  }
  Loop* l = loops_[loop].get();
  bool wake = false;
  {
    MutexLock g(l->post_mu);
    l->posted.push_back(std::move(fn));
    wake = l->posted.size() == 1;
  }
  if (wake) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(l->wake_fd.get(), &one, sizeof(one));
  }
}

void EventLoopPool::RunPosted(Loop* loop) {
  std::vector<std::function<void()>> batch;
  {
    MutexLock g(loop->post_mu);
    batch.swap(loop->posted);
  }
  for (auto& fn : batch) fn();
}

void EventLoopPool::StopAccepting() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (!accepting_.exchange(false)) return;
  // Deregister the listen fd from every loop before closing it; until
  // then a level-triggered pending backlog would spin the loops.
  struct Sync {
    Mutex mu;
    CondVar cv;
    size_t remaining ROADNET_GUARDED_BY(mu);
  };
  auto sync = std::make_shared<Sync>();
  {
    MutexLock g(sync->mu);
    sync->remaining = loops_.size();
  }
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    Post(l->index, [this, l, sync] {
      ::epoll_ctl(l->epoll_fd.get(), EPOLL_CTL_DEL, listen_.get(), nullptr);
      MutexLock g(sync->mu);
      if (--sync->remaining == 0) sync->cv.NotifyAll();
    });
  }
  {
    MutexLock lk(sync->mu);
    while (sync->remaining != 0) sync->cv.Wait(lk);
  }
  listen_.Close();
}

bool EventLoopPool::FlushAndWait(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    uint64_t queued = 0;
    for (const auto& loop : loops_) {
      queued += loop->write_queue_bytes.load(std::memory_order_relaxed);
    }
    if (queued == 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void EventLoopPool::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) {
    for (auto& loop : loops_) {
      if (loop->thread.joinable()) loop->thread.join();
    }
    return;
  }
  for (auto& loop : loops_) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(loop->wake_fd.get(), &one, sizeof(one));
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  started_.store(false, std::memory_order_release);
  // Cleanup closures posted after the loops drained their final batch
  // still have to run (their Sends fail the generation check).
  for (auto& loop : loops_) RunPosted(loop.get());
  listen_.Close();
}

bool EventLoopPool::Send(const ConnRef& conn, const std::string& body) {
  Loop* l = loops_[conn.loop].get();
  if (conn.slot >= l->conns.size()) return false;
  Conn& c = l->conns[conn.slot];
  if (!c.in_use || c.gen != conn.generation || c.dead) return false;
  const uint32_t len = static_cast<uint32_t>(body.size());
  c.out.append(reinterpret_cast<const char*>(&len), sizeof(len));
  c.out.append(body);
  l->write_queue_bytes.fetch_add(sizeof(len) + body.size(),
                                 std::memory_order_relaxed);
  if (!c.want_out_edge) FlushConn(l, &c);
  if (c.dead && !c.in_input) CloseConn(l, conn.slot);
  return true;
}

void EventLoopPool::FlushConn(Loop* loop, Conn* c) {
  while (c->out_head < c->out.size()) {
    const ssize_t n = ::send(c->fd.get(), c->out.data() + c->out_head,
                             c->out.size() - c->out_head, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_head += static_cast<size_t>(n);
      loop->write_queue_bytes.fetch_sub(static_cast<uint64_t>(n),
                                        std::memory_order_relaxed);
      c->last_activity_ns = NowNs();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      c->want_out_edge = true;
      break;
    }
    if (n < 0 && errno == EINTR) continue;
    c->dead = true;
    return;
  }
  if (c->out_head == c->out.size()) {
    c->out.clear();
    c->out_head = 0;
  } else if (c->out_head > (64u << 10) && c->out_head > c->out.size() / 2) {
    c->out.erase(0, c->out_head);
    c->out_head = 0;
  }
  // Resume reading once the backlog drained below half the soft cap.
  // Never from inside ProcessInput — that frame loop is still running.
  if (c->paused && !c->in_input &&
      c->out.size() - c->out_head <= options_.write_soft_cap / 2) {
    c->paused = false;
    epoll_event ev{};
    ev.events = kConnEvents;
    ev.data.u64 = static_cast<uint64_t>(c - loop->conns.data());
    ::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_MOD, c->fd.get(), &ev);
    ProcessInput(loop, static_cast<uint32_t>(c - loop->conns.data()));
  }
}

void EventLoopPool::ProcessInput(Loop* loop, uint32_t slot) {
  Conn& c = loop->conns[slot];
  if (!c.in_use || c.dead || c.paused) return;
  c.in_input = true;
  char buf[16384];
  for (;;) {
    // Drain frames already buffered before reading more.
    const uint64_t now = NowNs();
    std::string body;
    FrameAssembler::Result res;
    while ((res = c.assembler.Next(&body)) == FrameAssembler::Result::kFrame) {
      FrameMeta meta;
      meta.first_frame = c.first_frame;
      meta.accept_ns = c.accept_ns;
      meta.registered_ns = c.registered_ns;
      meta.read_start_ns = c.read_start_ns;
      meta.frame_end_ns = now;
      meta.write_queue_bytes = c.out.size() - c.out_head;
      meta.wake = loop->wake;
      c.first_frame = false;
      // A next frame already buffered starts now; an emptied assembler is
      // restamped by the read that refills it.
      c.read_start_ns = now;
      const ConnRef ref{loop->index, slot, c.gen};
      if (!handler_->OnFrame(ref, std::move(body), meta)) c.dead = true;
      if (c.dead) break;
      if (options_.write_soft_cap > 0 &&
          c.out.size() - c.out_head > options_.write_soft_cap) {
        // Backpressure: drop read interest and stop decoding what is
        // already buffered until the write queue drains.
        c.paused = true;
        epoll_event ev{};
        ev.events = EPOLLOUT | EPOLLET;
        ev.data.u64 = slot;
        ::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_MOD, c.fd.get(), &ev);
        break;
      }
    }
    if (c.dead || c.paused) break;
    if (res == FrameAssembler::Result::kError) {
      c.dead = true;
      break;
    }
    const ssize_t n = ::recv(c.fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      const uint64_t read_ns = NowNs();
      // The first bytes of a new frame: its frame_read span starts here,
      // not when the previous frame completed (that gap is client time).
      if (c.assembler.BufferedBytes() == 0) c.read_start_ns = read_ns;
      c.assembler.Feed(buf, static_cast<size_t>(n));
      c.last_activity_ns = read_ns;
      continue;
    }
    if (n == 0) {  // clean EOF
      c.dead = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    c.dead = true;
    break;
  }
  c.in_input = false;
  if (c.dead) CloseConn(loop, slot);
}

void EventLoopPool::CloseConn(Loop* loop, uint32_t slot) {
  Conn& c = loop->conns[slot];
  if (!c.in_use) return;
  loop->write_queue_bytes.fetch_sub(c.out.size() - c.out_head,
                                    std::memory_order_relaxed);
  c.fd.Close();  // the kernel drops the epoll registration with the fd
  c.in_use = false;
  c.gen++;  // stale ConnRefs and wheel entries now fail their check
  c.out.clear();
  c.out_head = 0;
  loop->freed_pending.push_back(slot);
  loop->open_conns.fetch_sub(1, std::memory_order_relaxed);
  total_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void EventLoopPool::HandleAccept(Loop* loop) {
  if (!accepting_.load(std::memory_order_acquire)) return;
  for (int burst = 0; burst < kAcceptBurst; ++burst) {
    int fd = -1;
    {
      MutexLock lock(accept_mu_);
      fd = ::accept4(listen_.get(), nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
      // Out of descriptors, the connection would stay in the backlog and
      // the level-triggered listen fd would wake every loop again at
      // once, spinning them until an fd frees. When the reserve takes
      // nothing, errno is its own accept's (EAGAIN: the backlog is empty)
      // or EMFILE/ENFILE (no reserve left).
      if (fd < 0 && (errno == EMFILE || errno == ENFILE) &&
          RejectWithReserveFd(loop)) {
        continue;
      }
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        loop->rejected.fetch_add(1, std::memory_order_relaxed);
        PauseListen(loop);
        break;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK &&
          errno != ECONNABORTED) {
        loop->rejected.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    // Counters are published before the close: a peer that sees its
    // connection closed may read Stats() at once.
    if (total_conns_.fetch_add(1, std::memory_order_relaxed) >=
        options_.max_connections) {
      total_conns_.fetch_sub(1, std::memory_order_relaxed);
      loop->rejected.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }
    uint32_t slot;
    if (!loop->free_slots.empty()) {
      slot = loop->free_slots.back();
      loop->free_slots.pop_back();
    } else {
      slot = static_cast<uint32_t>(loop->conns.size());
      loop->conns.emplace_back();
    }
    Conn& c = loop->conns[slot];
    const uint64_t gen = c.gen;  // preserved across reuse
    c = Conn{};
    c.gen = gen;
    c.fd = ScopedFd(fd);
    c.in_use = true;
    c.assembler = FrameAssembler(options_.max_frame_bytes);
    c.accept_ns = NowNs();
    epoll_event ev{};
    ev.events = kConnEvents;
    ev.data.u64 = slot;
    if (::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_ADD, c.fd.get(), &ev) !=
        0) {
      total_conns_.fetch_sub(1, std::memory_order_relaxed);
      loop->rejected.fetch_add(1, std::memory_order_relaxed);
      c.fd.Close();
      c.in_use = false;
      c.gen++;
      loop->free_slots.push_back(slot);
      continue;
    }
    c.registered_ns = NowNs();
    c.read_start_ns = c.registered_ns;
    c.last_activity_ns = c.registered_ns;
    loop->accepted.fetch_add(1, std::memory_order_relaxed);
    loop->open_conns.fetch_add(1, std::memory_order_relaxed);
    ScheduleIdle(loop, slot);
    // The socket may already hold a request; edge-triggered ADD is not
    // guaranteed to report bytes that raced the registration.
    ProcessInput(loop, slot);
  }
}

bool EventLoopPool::RejectWithReserveFd(Loop* loop) {
  if (!reserve_fd_.valid()) {
    reserve_fd_ = OpenReserveFd();  // lost while the process was full
    if (!reserve_fd_.valid()) return false;
  }
  reserve_fd_.Close();
  const int fd = ::accept4(listen_.get(), nullptr, nullptr, SOCK_CLOEXEC);
  const int accept_errno = errno;
  if (fd >= 0) {
    loop->rejected.fetch_add(1, std::memory_order_relaxed);
    ::close(fd);
  }
  reserve_fd_ = OpenReserveFd();
  errno = accept_errno;
  return fd >= 0;
}

void EventLoopPool::PauseListen(Loop* loop) {
  constexpr uint64_t kListenPauseNs = 10'000'000;
  ::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_DEL, listen_.get(), nullptr);
  loop->listen_resume_ns = NowNs() + kListenPauseNs;
}

void EventLoopPool::ScheduleIdle(Loop* loop, uint32_t slot) {
  if (loop->tick_ns == 0) return;
  const Conn& c = loop->conns[slot];
  const uint64_t deadline =
      c.last_activity_ns + options_.idle_timeout_ms * 1'000'000ull;
  loop->wheel[(deadline / loop->tick_ns) % kWheelBuckets].emplace_back(
      slot, c.gen);
}

void EventLoopPool::AdvanceWheel(Loop* loop, uint64_t now_ns) {
  if (loop->tick_ns == 0) return;
  const uint64_t now_tick = now_ns / loop->tick_ns;
  const uint64_t timeout_ns = options_.idle_timeout_ms * 1'000'000ull;
  while (loop->wheel_tick < now_tick) {
    ++loop->wheel_tick;
    auto& bucket = loop->wheel[loop->wheel_tick % kWheelBuckets];
    if (bucket.empty()) continue;
    auto entries = std::move(bucket);
    bucket.clear();
    for (const auto& [slot, gen] : entries) {
      if (slot >= loop->conns.size()) continue;
      Conn& c = loop->conns[slot];
      if (!c.in_use || c.gen != gen || c.dead) continue;
      if (c.last_activity_ns + timeout_ns <= now_ns) {
        loop->idle_reaped.fetch_add(1, std::memory_order_relaxed);
        CloseConn(loop, slot);
      } else {
        ScheduleIdle(loop, slot);
      }
    }
  }
}

void EventLoopPool::LoopMain(Loop* loop) {
  std::array<epoll_event, 256> events;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!loop->freed_pending.empty()) {
      loop->free_slots.insert(loop->free_slots.end(),
                              loop->freed_pending.begin(),
                              loop->freed_pending.end());
      loop->freed_pending.clear();
    }
    int timeout_ms = -1;
    if (loop->tick_ns > 0 || loop->listen_resume_ns > 0) {
      const uint64_t now = NowNs();
      uint64_t wake_ns = ~uint64_t{0};
      if (loop->tick_ns > 0) wake_ns = (loop->wheel_tick + 1) * loop->tick_ns;
      if (loop->listen_resume_ns > 0) {
        wake_ns = std::min(wake_ns, loop->listen_resume_ns);
      }
      timeout_ms = wake_ns > now
                       ? static_cast<int>((wake_ns - now) / 1'000'000 + 1)
                       : 0;
    }
    const int n = ::epoll_wait(loop->epoll_fd.get(), events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    ++loop->wake;
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      const uint32_t ev = events[i].events;
      if (tag == kWakeTag) {
        uint64_t drain = 0;
        [[maybe_unused]] ssize_t r =
            ::read(loop->wake_fd.get(), &drain, sizeof(drain));
        RunPosted(loop);
        if (stopping_.load(std::memory_order_acquire)) break;
        continue;
      }
      if (tag == kListenTag) {
        HandleAccept(loop);
        continue;
      }
      const uint32_t slot = static_cast<uint32_t>(tag);
      if (slot >= loop->conns.size() || !loop->conns[slot].in_use) continue;
      Conn& c = loop->conns[slot];
      if (ev & EPOLLOUT) {
        c.want_out_edge = false;
        if (c.out_head < c.out.size()) FlushConn(loop, &c);
        if (c.dead) {
          CloseConn(loop, slot);
          continue;
        }
      }
      if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        if (c.paused) {
          // Not reading this connection; a hangup still has to free it.
          if (ev & (EPOLLHUP | EPOLLERR)) CloseConn(loop, slot);
          continue;
        }
        ProcessInput(loop, slot);
      }
    }
    AdvanceWheel(loop, NowNs());
    if (loop->listen_resume_ns > 0 && NowNs() >= loop->listen_resume_ns) {
      loop->listen_resume_ns = 0;
      // StopAccepting deregisters through a closure that runs on this
      // thread after any re-registration here, so this cannot outlive it.
      if (accepting_.load(std::memory_order_acquire)) WatchListen(loop);
    }
  }
  // Drain anything still posted, then drop every connection this loop
  // owns. Pendings in flight resolve later through Post, which runs
  // their closures inline once the pool is stopped.
  RunPosted(loop);
  for (uint32_t slot = 0; slot < loop->conns.size(); ++slot) {
    if (loop->conns[slot].in_use) {
      FlushConn(loop, &loop->conns[slot]);  // best effort, nonblocking
      CloseConn(loop, slot);
    }
  }
}

EventLoopPool::PoolStats EventLoopPool::Stats() const {
  PoolStats stats;
  for (const auto& loop : loops_) {
    const uint64_t open = loop->open_conns.load(std::memory_order_relaxed);
    stats.accepted += loop->accepted.load(std::memory_order_relaxed);
    stats.rejected += loop->rejected.load(std::memory_order_relaxed);
    stats.idle_reaped += loop->idle_reaped.load(std::memory_order_relaxed);
    stats.write_queue_bytes +=
        loop->write_queue_bytes.load(std::memory_order_relaxed);
    stats.open_connections += open;
    stats.loop_connections.push_back(open);
  }
  return stats;
}

}  // namespace roadnet
