#include "net/server.h"

#include <poll.h>

#include <cerrno>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "net/query_eval.h"
#include "net/query_lang.h"

namespace tlp::net {

namespace {

/// Writes one framed reply to a nonblocking socket, polling for POLLOUT
/// when the send buffer fills, bounded by `timeout_ms` (0 = unbounded).
/// False = the connection is beyond saving (error or a client that
/// stopped reading).
bool WriteFrameBounded(int fd, std::string_view frame,
                       std::uint64_t timeout_ms) {
  const Deadline deadline = timeout_ms == 0
                                ? Deadline::Never()
                                : Deadline::AfterMillis(timeout_ms);
  std::size_t written = 0;
  while (written < frame.size()) {
    // MSG_NOSIGNAL, not a raw write: a worker replying to a client that
    // already disconnected must get EPIPE back (-> connection reaped),
    // not a process-killing SIGPIPE. The library cannot assume the
    // embedding process ignores SIGPIPE the way tlp_serve does.
    const ssize_t n = ::send(fd, frame.data() + written,
                             frame.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (deadline.expired()) return false;
      pollfd p{};
      p.fd = fd;
      p.events = POLLOUT;
      (void)::poll(&p, 1, deadline.RemainingPollMillis());
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace

QueryServer::QueryServer(const TwoLayerGrid& grid, ServerOptions options)
    : grid_(&grid), options_(std::move(options)) {}

QueryServer::QueryServer(ConcurrentTwoLayerGrid& live, ServerOptions options)
    : live_(&live), options_(std::move(options)) {}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  Status s = ListenTcp(options_.bind_address, options_.port, &listen_fd_,
                       &bound_port_);
  if (!s.ok()) return s;
  if (s = SetNonBlocking(listen_fd_.get(), true); !s.ok()) return s;
  if (s = wake_.Open(); !s.ok()) return s;
  workers_ = std::make_unique<ThreadPool>(options_.num_workers);
  started_ = true;
  reactor_ = std::thread([this] { ReactorLoop(); });
  return Status::OK();
}

void QueryServer::RequestShutdown() {
  stop_.store(true, std::memory_order_relaxed);
  if (wake_.valid()) wake_.Notify();
}

void QueryServer::Shutdown() {
  if (!started_ || joined_) return;
  RequestShutdown();
  if (reactor_.joinable()) reactor_.join();
  // Worker tasks catch everything, so Wait() returns normally; it exists
  // to make "all replies written" a post-condition of Shutdown().
  workers_->Wait();
  workers_.reset();
  conns_.clear();
  joined_ = true;
}

QueryServer::Counters QueryServer::counters() const {
  MutexLock lock(mutex_);
  return counters_;
}

void QueryServer::RefreshIdleDeadline(Conn* c) {
  c->idle_deadline = options_.idle_timeout_ms == 0
                         ? Deadline::Never()
                         : Deadline::AfterMillis(options_.idle_timeout_ms);
}

void QueryServer::ReactorLoop() {
  std::vector<pollfd> pollfds;
  std::vector<int> poll_conn_fds;  // conn fd per pollfds entry (or -1)
  std::vector<int> to_close;

  for (;;) {
    const bool stopping = stop_.load(std::memory_order_relaxed);
    if (stopping) {
      listen_fd_.reset();
      // Close idle connections; executing ones drain through their
      // workers and are reaped in ProcessCompletions.
      to_close.clear();
      for (const auto& [fd, conn] : conns_) {
        if (conn->state == Conn::State::kReading) to_close.push_back(fd);
      }
      for (const int fd : to_close) CloseConn(fd);
      if (inflight_ == 0) break;
    }

    pollfds.clear();
    poll_conn_fds.clear();
    int timeout = -1;

    pollfd wake_entry{};
    wake_entry.fd = wake_.read_fd();
    wake_entry.events = POLLIN;
    pollfds.push_back(wake_entry);
    poll_conn_fds.push_back(-1);

    if (!stopping && listen_fd_.valid()) {
      pollfd listen_entry{};
      listen_entry.fd = listen_fd_.get();
      listen_entry.events = POLLIN;
      pollfds.push_back(listen_entry);
      poll_conn_fds.push_back(-1);
    }

    for (const auto& [fd, conn] : conns_) {
      if (conn->state != Conn::State::kReading) continue;
      pollfd entry{};
      entry.fd = fd;
      entry.events = POLLIN;
      pollfds.push_back(entry);
      poll_conn_fds.push_back(fd);
      const int remaining = conn->idle_deadline.RemainingPollMillis();
      if (remaining >= 0 && (timeout < 0 || remaining < timeout)) {
        timeout = remaining;
      }
    }

    const int rc =
        ::poll(pollfds.data(),
               static_cast<nfds_t>(pollfds.size()), timeout);
    if (rc < 0 && errno != EINTR) break;  // poll itself failed: give up

    wake_.Drain();
    ProcessCompletions();
    if (stop_.load(std::memory_order_relaxed)) continue;

    // Idle timeouts: connections whose read deadline has passed.
    to_close.clear();
    for (const auto& [fd, conn] : conns_) {
      if (conn->state == Conn::State::kReading &&
          conn->idle_deadline.expired()) {
        to_close.push_back(fd);
      }
    }
    if (!to_close.empty()) {
      MutexLock lock(mutex_);
      counters_.idle_disconnects += to_close.size();
    }
    for (const int fd : to_close) CloseConn(fd);

    for (std::size_t i = 0; i < pollfds.size(); ++i) {
      if (pollfds[i].revents == 0) continue;
      if (pollfds[i].fd == wake_.read_fd()) continue;
      if (listen_fd_.valid() && pollfds[i].fd == listen_fd_.get()) {
        AcceptNewConnections();
        continue;
      }
      const int fd = poll_conn_fds[i];
      const auto it = conns_.find(fd);
      if (it == conns_.end() ||
          it->second->state != Conn::State::kReading) {
        continue;  // completed & re-dispatched meanwhile
      }
      Conn* c = it->second.get();
      if (!ReadFromConn(c)) {
        CloseConn(fd);
        continue;
      }
      RefreshIdleDeadline(c);
      MaybeDispatch(c);
    }
  }

  ProcessCompletions();
}

void QueryServer::AcceptNewConnections() {
  for (;;) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: next poll retries
    }
    UniqueFd owned(fd);
    if (!SetNonBlocking(fd, true).ok()) continue;  // owned closes it
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = std::move(owned);
    RefreshIdleDeadline(conn.get());
    conns_.emplace(fd, std::move(conn));
    MutexLock lock(mutex_);
    ++counters_.connections_accepted;
  }
}

bool QueryServer::ReadFromConn(Conn* c) {
  char buf[4096];
  for (;;) {
    const long n = ReadSome(c->fd.get(), buf, sizeof(buf));
    if (n > 0) {
      c->decoder.Append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == -1) return true;  // drained for now
    return false;              // EOF or error
  }
}

void QueryServer::MaybeDispatch(Conn* c) {
  if (c->state != Conn::State::kReading) return;
  if (c->decoder.overflowed()) {
    {
      MutexLock lock(mutex_);
      ++counters_.protocol_errors;
    }
    CloseConn(c->fd.get());
    return;
  }
  std::string payload;
  // One in-flight query per connection: dispatch a single frame and park
  // the socket. Pipelined frames past the admission ceiling get a BUSY
  // each — the shedding is per query, not per connection.
  while (c->decoder.Next(&payload)) {
    if (inflight_ < options_.max_inflight) {
      ++inflight_;
      c->state = Conn::State::kExecuting;
      ExecuteOnWorker(c, std::move(payload));
      return;
    }
    {
      MutexLock lock(mutex_);
      ++counters_.busy_rejected;
    }
    if (!WriteFrameBounded(c->fd.get(), EncodeFrame(EncodeBusyReply()),
                           options_.write_timeout_ms)) {
      CloseConn(c->fd.get());
      return;
    }
  }
  if (c->decoder.overflowed()) MaybeDispatch(c);  // re-check after drain
}

void QueryServer::ExecuteOnWorker(Conn* c, std::string payload) {
  workers_->Submit([this, c, payload = std::move(payload)]() {
    bool ok_reply = false;
    bool update_applied = false;
    std::string reply;
    try {
      if (pre_eval_hook_for_test) pre_eval_hook_for_test();
      Query q;
      ParseError perr;
      if (!ParseQuery(payload, &q, &perr)) {
        reply = EncodeErrReply("parse", perr.offset, perr.message);
      } else {
        EvalResult result;
        const Status s = live_ != nullptr ? EvaluateQuery(*live_, q, &result)
                                          : EvaluateQuery(*grid_, q, &result);
        if (!s.ok()) {
          reply = EncodeErrReply("eval", 0, s.message());
        } else {
          reply = EncodeOkReply(result.rows, result.stats_json);
          if (reply.size() > kMaxFrameBytes) {
            // Every client's decoder drops an oversized frame as a protocol
            // error; a bounded ERR keeps the connection usable.
            reply = EncodeErrReply(
                "eval", 0,
                "reply of " + std::to_string(reply.size()) +
                    " bytes exceeds the frame cap of " +
                    std::to_string(kMaxFrameBytes) + " bytes");
          } else {
            ok_reply = true;
            // "1" = applied; a "0" (duplicate insert / delete of a missing
            // id) answered OK but changed nothing, so it does not count.
            update_applied = IsUpdate(q.kind) && !result.rows.empty() &&
                             result.rows.front() == "1";
          }
        }
      }
    } catch (const std::exception& e) {
      reply = EncodeErrReply("server", 0, e.what());
    } catch (...) {
      reply = EncodeErrReply("server", 0, "unknown failure");
    }
    if (!WriteFrameBounded(c->fd.get(), EncodeFrame(reply),
                           options_.write_timeout_ms)) {
      c->dead.store(true, std::memory_order_relaxed);
    }
    {
      MutexLock lock(mutex_);
      if (ok_reply) {
        ++counters_.queries_ok;
        if (update_applied) ++counters_.updates_applied;
      } else {
        ++counters_.queries_error;
      }
      completed_fds_.push_back(c->fd.get());
    }
    wake_.Notify();
  });
}

void QueryServer::ProcessCompletions() {
  std::vector<int> done;
  {
    MutexLock lock(mutex_);
    done.swap(completed_fds_);
  }
  for (const int fd : done) {
    // Every completion record pairs with exactly one inflight_ increment
    // in MaybeDispatch, so decrement unconditionally BEFORE any early
    // continue. Skipping the decrement when the connection is gone (e.g.
    // a disconnect-path close racing the worker) would leak an admission
    // slot each time and eventually wedge the server at max_inflight,
    // answering BUSY forever.
    --inflight_;
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn* c = it->second.get();
    c->state = Conn::State::kReading;
    if (c->dead.load(std::memory_order_relaxed) ||
        stop_.load(std::memory_order_relaxed)) {
      CloseConn(fd);
      continue;
    }
    RefreshIdleDeadline(c);
    MaybeDispatch(c);  // a pipelined frame may already be buffered
  }
}

void QueryServer::CloseConn(int fd) { conns_.erase(fd); }

}  // namespace tlp::net
