#include "loadgen.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "common.h"
#include "server/client.h"
#include "server/wire.h"

namespace perfbench {

namespace wire = roadnet::wire;

namespace {

// How long before a due send the generator stops sleeping and polls: at
// most 30 us, and at most a quarter of the mean gap, so polling never
// takes more than a quarter of a core from the server at high rates.
constexpr uint64_t kMaxSpinNs = 30000;

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv(uint64_t h, uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((x >> (8 * i)) & 0xFF)) * kFnvPrime;
  }
  return h;
}

void AppendFrame(const std::string& body, std::string* out) {
  const uint32_t len = static_cast<uint32_t>(body.size());
  char header[4];
  std::memcpy(header, &len, sizeof(len));
  out->append(header, sizeof(header));
  out->append(body);
}

}  // namespace

bool IsServed(uint8_t status) {
  return status == static_cast<uint8_t>(wire::Status::kOk) ||
         status == static_cast<uint8_t>(wire::Status::kUnreachable);
}

uint64_t HashPath(const std::vector<VertexId>& path) {
  uint64_t h = kFnvOffset;
  for (VertexId v : path) h = Fnv(h, v);
  return h;
}

uint64_t HashKnn(const std::vector<std::pair<VertexId, Distance>>& entries) {
  uint64_t h = kFnvOffset;
  for (const auto& [poi, dist] : entries) h = Fnv(Fnv(h, poi), dist);
  return h;
}

std::vector<double> PhaseResult::LatenciesUs(
    const std::vector<ScheduledRequest>& sched, bool path) const {
  std::vector<double> out;
  out.reserve(replies.size());
  for (size_t i = 0; i < replies.size(); ++i) {
    const Reply& r = replies[i];
    if (sched[i].path != path || r.recv_ns == 0 || !IsServed(r.status)) {
      continue;
    }
    out.push_back(
        static_cast<double>(r.recv_ns - (origin_ns + sched[i].due_ns)) * 1e-3);
  }
  return out;
}

std::vector<double> PhaseResult::LatenessUs(
    const std::vector<ScheduledRequest>& sched) const {
  std::vector<double> out;
  out.reserve(replies.size());
  for (size_t i = 0; i < replies.size(); ++i) {
    const uint64_t due = origin_ns + sched[i].due_ns;
    const uint64_t sent = replies[i].send_ns;
    if (sent != 0) out.push_back(sent > due ? (sent - due) * 1e-3 : 0.0);
  }
  return out;
}

OpenLoopClient::OpenLoopClient() : read_buf_(1 << 16) {}
OpenLoopClient::~OpenLoopClient() = default;

bool OpenLoopClient::Connect(uint16_t port, size_t connections,
                             std::string* error) {
  // Timers fire within a nanosecond of their deadline instead of the
  // default 50 us slack, so the schedule holds below a millisecond.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  epoll_ = roadnet::ScopedFd(::epoll_create1(EPOLL_CLOEXEC));
  timer_ = roadnet::ScopedFd(
      ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
  if (!epoll_.valid() || !timer_.valid()) {
    *error = "epoll/timerfd: " + std::string(std::strerror(errno));
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = UINT64_MAX;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, timer_.get(), &ev);
  conns_.clear();
  conns_.reserve(connections);
  for (size_t i = 0; i < connections; ++i) {
    roadnet::ScopedFd fd = roadnet::ConnectTcp("127.0.0.1", port, error);
    if (!fd.valid()) return false;
    ::fcntl(fd.get(), F_SETFL, ::fcntl(fd.get(), F_GETFL) | O_NONBLOCK);
    conns_.push_back(Conn{});
    conns_.back().fd = std::move(fd);
    epoll_event cev{};
    cev.events = EPOLLIN;
    cev.data.u64 = i;
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conns_.back().fd.get(), &cev);
  }
  return true;
}

void OpenLoopClient::WatchWrite(size_t index, bool on) {
  Conn& c = conns_[index];
  if (c.want_write == on) return;
  c.want_write = on;
  epoll_event ev{};
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0);
  ev.data.u64 = index;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, c.fd.get(), &ev);
}

bool OpenLoopClient::Flush(Conn* c, PhaseResult* result) {
  while (c->out_head < c->out.size()) {
    const ssize_t n =
        ::send(c->fd.get(), c->out.data() + c->out_head,
               c->out.size() - c->out_head, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c->out_head += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    if (n < 0 && errno == EINTR) continue;
    c->dead = true;
    ++result->transport_errors;
    c->out.clear();
    c->out_head = 0;
    return true;
  }
  c->out.clear();
  c->out_head = 0;
  return true;
}

void OpenLoopClient::ReadAvailable(
    Conn* c, PhaseResult* result, uint64_t id_base, size_t* outstanding,
    std::vector<std::vector<VertexId>>* first_paths,
    const std::vector<ScheduledRequest>& schedule) {
  while (!c->dead) {
    const ssize_t n = ::recv(c->fd.get(), read_buf_.data(), read_buf_.size(),
                             MSG_DONTWAIT);
    if (n > 0) {
      c->frames.Feed(read_buf_.data(), static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    c->dead = true;
    ++result->transport_errors;
  }
  const uint64_t now = NowNs();
  std::string body;
  while (true) {
    const auto r = c->frames.Next(&body);
    if (r == roadnet::FrameAssembler::Result::kNeedMore) break;
    if (r == roadnet::FrameAssembler::Result::kError) {
      c->dead = true;
      ++result->transport_errors;
      break;
    }
    std::optional<wire::QueryResponse> resp = wire::DecodeQueryResponseV2(body);
    if (!resp.has_value() || resp->request_id <= id_base ||
        resp->request_id - id_base > result->replies.size()) {
      ++result->transport_errors;
      continue;
    }
    const size_t index = resp->request_id - id_base - 1;
    Reply& reply = result->replies[index];
    if (reply.recv_ns != 0) {
      ++result->transport_errors;  // duplicate reply
      continue;
    }
    reply.recv_ns = now;
    reply.distance = resp->distance;
    reply.status = static_cast<uint8_t>(resp->status);
    if (schedule[index].path) {
      reply.path_hash = HashPath(resp->path);
      std::vector<VertexId>& keep = (*first_paths)[schedule[index].pair];
      if (keep.empty() && !resp->path.empty()) keep = std::move(resp->path);
    }
    result->last_recv_ns = now;
    --*outstanding;
  }
}

PhaseResult OpenLoopClient::Run(
    const std::vector<ScheduledRequest>& schedule,
    const std::vector<Pair>& pairs, double drain_s,
    std::vector<std::vector<VertexId>>* first_paths) {
  PhaseResult result;
  result.replies.assign(schedule.size(), Reply{});
  // Ids of this phase live above id_base, so a stray reply from an earlier
  // phase can never be mistaken for one of these.
  const uint64_t id_base = (++phase_) << 40;
  size_t outstanding = 0;
  size_t next = 0;
  std::vector<size_t> just_sent;
  just_sent.reserve(1024);
  epoll_event events[16];
  // A short lead so the first due time is still ahead of the clock.
  result.origin_ns = NowNs() + 200000;
  const uint64_t last_due =
      schedule.empty() ? 0 : schedule.back().due_ns + result.origin_ns;
  const uint64_t drain_deadline =
      last_due + static_cast<uint64_t>(drain_s * 1e9);
  const uint64_t spin_ns =
      schedule.empty()
          ? 0
          : std::min(kMaxSpinNs, schedule.back().due_ns / schedule.size() / 4);

  while (true) {
    uint64_t now = NowNs();
    just_sent.clear();
    while (next < schedule.size() &&
           result.origin_ns + schedule[next].due_ns <= now) {
      const ScheduledRequest& s = schedule[next];
      wire::QueryRequest req;
      req.kind = s.path ? wire::QueryKind::kPath : wire::QueryKind::kDistance;
      req.source = pairs[s.pair].first;
      req.target = pairs[s.pair].second;
      req.request_id = id_base + next + 1;
      Conn& c = conns_[next % conns_.size()];
      AppendFrame(wire::EncodeQueryRequestV2(req), &c.out);
      just_sent.push_back(next);
      ++next;
      ++outstanding;
    }
    if (!just_sent.empty()) {
      for (size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = conns_[i];
        if (c.dead || c.out.empty() || c.want_write) continue;
        if (!Flush(&c, &result)) WatchWrite(i, true);
      }
      const uint64_t sent_at = NowNs();
      for (size_t i : just_sent) result.replies[i].send_ns = sent_at;
    }
    if (next == schedule.size() && outstanding == 0) break;
    int timeout_ms = -1;
    if (next < schedule.size()) {
      // Sleep on the timer until shortly before the next send, then poll
      // the sockets until it is due: a timer wake-up alone costs tens of
      // microseconds, which would land on every latency at low rates.
      const uint64_t due = result.origin_ns + schedule[next].due_ns;
      if (due <= NowNs() + spin_ns) {
        timeout_ms = 0;
      } else {
        const uint64_t wake = due - spin_ns;
        itimerspec its{};
        its.it_value.tv_sec = static_cast<time_t>(wake / 1000000000ULL);
        its.it_value.tv_nsec = static_cast<long>(wake % 1000000000ULL);
        ::timerfd_settime(timer_.get(), TFD_TIMER_ABSTIME, &its, nullptr);
      }
    } else {
      now = NowNs();
      if (now >= drain_deadline) break;
      timeout_ms = static_cast<int>((drain_deadline - now) / 1000000ULL) + 1;
    }
    const int n = ::epoll_wait(epoll_.get(), events, 16, timeout_ms);
    for (int e = 0; e < n; ++e) {
      const uint64_t tag = events[e].data.u64;
      if (tag == UINT64_MAX) {
        ConsumeTimer();
        continue;
      }
      Conn& c = conns_[tag];
      if (c.dead) continue;
      if (events[e].events & EPOLLOUT) {
        if (Flush(&c, &result)) WatchWrite(tag, false);
      }
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        ReadAvailable(&c, &result, id_base, &outstanding, first_paths,
                      schedule);
      }
    }
    bool all_dead = true;
    for (const Conn& c : conns_) all_dead = all_dead && c.dead;
    if (all_dead) break;
  }

  Finalize(&result);
  return result;
}

void OpenLoopClient::ConsumeTimer() {
  uint64_t expirations;
  [[maybe_unused]] const ssize_t r =
      ::read(timer_.get(), &expirations, sizeof(expirations));
}

void OpenLoopClient::Finalize(PhaseResult* result) {
  for (const Reply& r : result->replies) {
    if (r.recv_ns == 0) {
      ++result->missing;
    } else if (r.status == static_cast<uint8_t>(wire::Status::kOk)) {
      ++result->ok;
    } else if (r.status == static_cast<uint8_t>(wire::Status::kUnreachable)) {
      ++result->unreachable;
    } else if (r.status == static_cast<uint8_t>(wire::Status::kOverloaded)) {
      ++result->overloaded;
    } else {
      ++result->other_status;
    }
  }
  const double served_s =
      result->last_recv_ns > result->origin_ns
          ? static_cast<double>(result->last_recv_ns - result->origin_ns) * 1e-9
          : 0;
  result->achieved_qps =
      served_s > 0 ? static_cast<double>(result->ok + result->unreachable) /
                         served_s
                   : 0;
}

PhaseResult OpenLoopClient::RunClosed(const std::vector<Pair>& pairs,
                                      roadnet::Rng* rng, size_t depth,
                                      double seconds,
                                      std::vector<ScheduledRequest>* sent) {
  PhaseResult result;
  const uint64_t id_base = (++phase_) << 40;
  result.origin_ns = NowNs();
  const uint64_t end = result.origin_ns + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t drain_deadline = end + 3000000000ULL;
  sent->clear();
  size_t outstanding = 0;
  auto send = [&](size_t conn, size_t count) {
    Conn& c = conns_[conn];
    const uint64_t now = NowNs();
    for (size_t k = 0; k < count; ++k) {
      const size_t index = sent->size();
      const uint32_t pair = static_cast<uint32_t>(rng->NextBelow(pairs.size()));
      sent->push_back(ScheduledRequest{now - result.origin_ns, pair, false});
      result.replies.push_back(Reply{});
      result.replies.back().send_ns = now;
      wire::QueryRequest req;
      req.source = pairs[pair].first;
      req.target = pairs[pair].second;
      req.request_id = id_base + index + 1;
      AppendFrame(wire::EncodeQueryRequestV2(req), &c.out);
      ++outstanding;
    }
    if (!c.want_write && !Flush(&c, &result)) WatchWrite(conn, true);
  };
  for (size_t i = 0; i < conns_.size(); ++i) send(i, depth);
  epoll_event events[16];
  std::vector<std::vector<VertexId>> no_paths;
  while (outstanding > 0) {
    const uint64_t now = NowNs();
    if (now >= drain_deadline) break;
    const int timeout_ms =
        static_cast<int>((drain_deadline - now) / 1000000ULL) + 1;
    const int n = ::epoll_wait(epoll_.get(), events, 16, timeout_ms);
    for (int e = 0; e < n; ++e) {
      const uint64_t tag = events[e].data.u64;
      if (tag == UINT64_MAX) {
        ConsumeTimer();  // a send timer left armed by an open-loop phase
        continue;
      }
      Conn& c = conns_[tag];
      if (c.dead) continue;
      if (events[e].events & EPOLLOUT) {
        if (Flush(&c, &result)) WatchWrite(tag, false);
      }
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        const size_t before = outstanding;
        ReadAvailable(&c, &result, id_base, &outstanding, &no_paths, *sent);
        if (NowNs() < end && !c.dead) send(tag, before - outstanding);
      }
    }
  }
  Finalize(&result);
  return result;
}

RttResult ClosedLoopRtt(uint16_t port, const std::vector<Pair>& pairs,
                        size_t count) {
  RttResult out;
  std::string error;
  roadnet::ScopedFd fd = roadnet::ConnectTcp("127.0.0.1", port, &error);
  if (!fd.valid()) {
    out.failed = count;
    return out;
  }
  out.rtt_us.reserve(count);
  out.in_server_us.reserve(count);
  std::string body;
  for (size_t i = 0; i < count; ++i) {
    wire::QueryRequest req;
    req.source = pairs[i % pairs.size()].first;
    req.target = pairs[i % pairs.size()].second;
    req.request_id = i + 1;
    const std::string frame = wire::EncodeQueryRequestV2(req);
    const uint64_t start = NowNs();
    if (!roadnet::WriteFrame(fd.get(), frame) ||
        !roadnet::ReadFrame(fd.get(), &body, wire::kMaxFrameBytes)) {
      ++out.failed;
      break;
    }
    const uint64_t end = NowNs();
    const auto resp = wire::DecodeQueryResponseV2(body);
    if (!resp.has_value() || resp->request_id != req.request_id ||
        !IsServed(static_cast<uint8_t>(resp->status))) {
      ++out.failed;
      continue;
    }
    out.answers.emplace_back(
        static_cast<uint32_t>(i % pairs.size()),
        resp->status == wire::Status::kUnreachable ? roadnet::kInfDistance
                                                   : resp->distance);
    out.rtt_us.push_back(static_cast<double>(end - start) * 1e-3);
    out.in_server_us.push_back(static_cast<double>(resp->server_latency_ns) *
                               1e-3);
  }
  return out;
}

std::vector<double> EchoRttUs(size_t count) {
  std::vector<double> out;
  std::string error;
  uint16_t port = 0;
  roadnet::ScopedFd listener = roadnet::ListenTcp(0, &port, &error);
  if (!listener.valid()) return out;
  std::thread echo([&listener] {
    roadnet::ScopedFd conn(::accept(listener.get(), nullptr, nullptr));
    if (!conn.valid()) return;
    const int one = 1;
    ::setsockopt(conn.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::string body;
    while (roadnet::ReadFrame(conn.get(), &body, wire::kMaxFrameBytes) &&
           roadnet::WriteFrame(conn.get(), body)) {
    }
  });
  {
    roadnet::ScopedFd fd = roadnet::ConnectTcp("127.0.0.1", port, &error);
    if (fd.valid()) {
      wire::QueryRequest req;
      req.source = 1;
      req.target = 2;
      req.request_id = 1;
      const std::string frame = wire::EncodeQueryRequestV2(req);
      std::string body;
      out.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        const uint64_t start = NowNs();
        if (!roadnet::WriteFrame(fd.get(), frame) ||
            !roadnet::ReadFrame(fd.get(), &body, wire::kMaxFrameBytes)) {
          break;
        }
        out.push_back(static_cast<double>(NowNs() - start) * 1e-3);
      }
    } else {
      // Unblock the echo thread's accept so it can be joined.
      ::shutdown(listener.get(), SHUT_RDWR);
    }
  }  // closing the client ends the echo loop
  echo.join();
  return out;
}

void RunKnnCaller(uint16_t port, const std::vector<VertexId>& sources,
                  uint32_t k, uint64_t seed, const std::atomic<bool>* stop,
                  std::vector<KnnSample>* out, std::string* error) {
  std::unique_ptr<roadnet::BlockingClient> client =
      roadnet::BlockingClient::Connect("127.0.0.1", port, error);
  if (client == nullptr) return;
  roadnet::Rng rng(seed);
  wire::KnnResponse resp;
  while (!stop->load(std::memory_order_relaxed)) {
    const uint32_t index = static_cast<uint32_t>(rng.NextBelow(sources.size()));
    wire::KnnRequest req;
    req.method = wire::KnnMethod::kBucketCh;
    req.category = 0;
    req.k = k;
    req.source = sources[index];
    KnnSample s{NowNs(), 0, index, 0, 0, false};
    const bool sent = client->Knn(req, &resp, error);
    s.recv_ns = NowNs();
    s.ok = sent && resp.status == wire::Status::kOk;
    if (s.ok) {
      s.entries = static_cast<uint32_t>(resp.entries.size());
      s.hash = HashKnn(resp.entries);
    }
    out->push_back(s);
    if (!sent) return;
  }
}

}  // namespace perfbench
