// servebench load — closed-loop load against a running tlp_serve.
//
//   servebench load --port=P --workload=W --seed=S --csv=CSV
//                   [--seconds=T] [--check-every=K] [--mix=...] [--host=A]
//
// One thread drives kConnections (4) connections through a nonblocking
// poll() loop. Each connection keeps exactly one statement outstanding and
// sends the next the moment a reply lands (a closed loop, so a slower
// server receives less load). Statements come from the workload's
// generator (workload.h); the first second (less on short runs) warms up.
//
// Timing: a statement is timed from its FIRST send to its final reply, so
// the backoff after a BUSY reply counts toward its latency. Latencies are
// kept per kind (the five reads and "update") and only for statements
// sent after the warm-up and answered before the end of the T measured
// seconds; throughput counts every reply that lands in that window.
//
// Slices and groups: the measured window is cut into slices of
// kSliceSeconds by the time each reply lands. Besides the whole-window
// numbers, the throughput is also reported as the median over slices, and
// each kind's p50 and p99 as the median over groups: runs of consecutive
// slices, each closed once it holds kGroupSamples latencies of the kind
// (a trailing group with fewer is left out). A group is one slice on a
// fast kind and a few on a slow one. On a shared host a few seconds of
// stolen CPU move a whole-window p99 a long way but only a few groups, so
// the medians are the steadier numbers to compare across runs.
//
// Failures never abort the run: ERR and BUSY replies are counted (a BUSY
// statement is retried with a doubling backoff), and the run reports them
// against the number attempted.
//
// Correctness: every INSERT/DELETE reply must be the predicted "1"; every
// K-th read of a connection (K = --check-every, default 50; 0 = none) is
// kept and, after the timed phase, compared with a brute-force answer over
// the CSV (oracle.h). A live server must also end with WALSTATS live_count
// = base objects + the private objects still inserted.
//
// Output: one JSON line with attempted/failed counts, throughput and its
// slice median, per-kind {n, p50_us, p99_us, mean_us, groups,
// group_p50_us, group_p99_us}, the check results and, for a live server,
// the WALSTATS rows. Exit status 0 only when nothing failed or mismatched.

#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "io/dataset_io.h"
#include "net/client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "servebench/oracle.h"
#include "servebench/servebench.h"

namespace servebench {

namespace {

using tlp::net::FrameDecoder;
using tlp::net::Reply;
using tlp::net::UniqueFd;

/// A read reply kept for the post-run oracle check.
struct Sample {
  Statement statement;
  std::size_t conn = 0;
  std::optional<tlp::BoxEntry> own;
  std::vector<std::string> rows;
};

struct Conn {
  Conn(const Mix& mix, double where_fraction, std::uint64_t seed,
       std::size_t index)
      : stream(mix, where_fraction, seed, index) {}

  UniqueFd fd;
  FrameDecoder decoder;
  StatementStream stream;
  Statement current;
  std::string frame;     // the current statement's request frame
  std::size_t sent = 0;  // bytes of `frame` written
  bool awaiting = false;
  bool sample = false;   // keep this read's reply for the oracle
  std::size_t reads = 0;
  double first_send = 0;  // never reset by a BUSY retry
  double retry_at = 0;    // a BUSY retry waits until then (0 = none)
  double backoff = 0;
};

/// Slice length, and the latencies of a kind a group of slices collects
/// (so each group's p99 has ten samples beyond it).
constexpr double kSliceSeconds = 1.0;
constexpr std::size_t kGroupSamples = 1000;

struct Totals {
  explicit Totals(std::size_t slices) : in_slice(slices, 0) {
    for (auto& kind : latency_us) kind.resize(slices);
  }

  // latency_us[kind][slice]: measured latencies by the slice their reply
  // landed in; in_slice[slice]: every reply landing in that slice.
  std::array<std::vector<std::vector<double>>, kReportKinds> latency_us;
  std::vector<std::size_t> in_slice;
  std::size_t attempted = 0;
  std::size_t errors = 0;
  std::size_t busy = 0;
  std::size_t update_mismatches = 0;
  std::string first_failure;
  std::vector<Sample> samples;
};

/// Writes as much of the request as the socket takes; false when broken.
bool Flush(Conn* c) {
  while (c->sent < c->frame.size()) {
    const long n = ::write(c->fd.get(), c->frame.data() + c->sent,
                           c->frame.size() - c->sent);
    if (n > 0) {
      c->sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }
  return true;
}

void StartNext(Conn* c, std::size_t check_every, double now, Totals* t) {
  c->current = c->stream.Next();
  c->sample = false;
  if (IsRead(c->current.kind)) {
    c->sample = check_every > 0 && c->reads % check_every == 0;
    ++c->reads;
  }
  c->frame = tlp::net::EncodeFrame(c->current.text);
  c->sent = 0;
  c->awaiting = true;
  c->first_send = now;
  c->retry_at = 0;
  c->backoff = 0;
  ++t->attempted;
}

void NoteFailure(Totals* t, const std::string& what) {
  if (t->first_failure.empty()) t->first_failure = what;
}

/// Fetches WALSTATS rows (`key value`) over a fresh blocking connection.
bool FetchWalStats(const std::string& host, std::uint16_t port,
                   std::map<std::string, double>* out) {
  tlp::net::QueryClient client;
  Reply reply;
  if (!client.Connect(host, port).ok() ||
      !client.Execute("WALSTATS", &reply).ok() ||
      reply.kind != Reply::Kind::kOk) {
    return false;
  }
  for (const std::string& row : reply.rows) {
    const std::size_t space = row.find(' ');
    if (space == std::string::npos) return false;
    try {
      (*out)[row.substr(0, space)] = std::stod(row.substr(space + 1));
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

/// Keeps the calling thread on the last CPU it may use for its lifetime,
/// when it may use four or more. run.py keeps the server off that CPU on
/// such machines, so client and server never share a core while the load
/// is measured; left to the scheduler, the client wakes on the server's
/// cores and leaves its own idle. The destructor gives every CPU back for
/// the oracle checks.
class PinToLastCpu {
 public:
  PinToLastCpu() {
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0 ||
        CPU_COUNT(&saved_) < 4) {
      return;
    }
    std::size_t last = 0;
    for (std::size_t cpu = 0; cpu < std::size_t{CPU_SETSIZE}; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) last = cpu;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinToLastCpu() {
    if (pinned_) (void)::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToLastCpu(const PinToLastCpu&) = delete;
  PinToLastCpu& operator=(const PinToLastCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

}  // namespace

int RunLoad(Args& args) {
  Mix mix;
  const Workload* w = WorkloadArg(args, &mix);
  if (w == nullptr) return 2;
  const std::string host = args.Str("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.U64("port", 0));
  const std::uint64_t seed = args.U64("seed", 1);
  const double seconds = args.F64("seconds", 10);
  const double warmup = std::min(1.0, seconds / 5);
  const std::size_t check_every = args.U64("check-every", 50);
  const std::string csv = args.Str("csv");
  if (!args.error().empty() || !args.Leftover().empty() || port == 0 ||
      seconds <= 0 || csv.empty()) {
    std::fprintf(stderr,
                 "servebench load: needs --port --workload --csv %s%s\n",
                 args.error().c_str(), args.Leftover().c_str());
    return 2;
  }

  std::optional<PinToLastCpu> pin(std::in_place);  // until the checks
  std::vector<Conn> conns;
  conns.reserve(kConnections);
  for (std::size_t i = 0; i < kConnections; ++i) {
    conns.emplace_back(mix, w->where_fraction, seed, i);
    tlp::Status s = tlp::net::ConnectTcp(host, port, &conns[i].fd);
    if (s.ok()) s = tlp::net::SetNonBlocking(conns[i].fd.get(), true);
    if (!s.ok()) {
      std::fprintf(stderr, "servebench load: connect: %s\n",
                   s.message().c_str());
      return 1;
    }
  }

  const auto slices = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kSliceSeconds)));
  const double slice_len = seconds / static_cast<double>(slices);
  Totals t(slices);
  const double measure_start = NowSeconds() + warmup;
  const double measure_end = measure_start + seconds;
  for (Conn& c : conns) {
    StartNext(&c, check_every, NowSeconds(), &t);
    if (!Flush(&c)) {
      std::fprintf(stderr, "servebench load: connection broke on send\n");
      return 1;
    }
  }

  std::vector<pollfd> pfds;
  std::vector<Conn*> polled;
  double last_progress = NowSeconds();
  for (;;) {
    pfds.clear();
    polled.clear();
    double now = NowSeconds();
    int timeout_ms = 1000;
    for (Conn& c : conns) {
      if (!c.awaiting) continue;
      if (c.retry_at > now) {
        const int wait_ms = static_cast<int>((c.retry_at - now) * 1000) + 1;
        timeout_ms = std::min(timeout_ms, wait_ms);
        continue;
      }
      if (c.retry_at != 0) {
        c.retry_at = 0;
        c.sent = 0;
        if (!Flush(&c)) {
          std::fprintf(stderr, "servebench load: connection broke on retry\n");
          return 1;
        }
      }
      const bool writing = c.sent < c.frame.size();
      const auto events = static_cast<short>(POLLIN | (writing ? POLLOUT : 0));
      pfds.push_back(pollfd{c.fd.get(), events, 0});
      polled.push_back(&c);
    }
    if (pfds.empty() && timeout_ms == 1000) break;  // every connection done
    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      std::perror("servebench load: poll");
      return 1;
    }
    now = NowSeconds();
    if (rc <= 0) {
      if (now - last_progress > 30) {
        std::fprintf(stderr, "servebench load: no reply for 30 s\n");
        return 1;
      }
      continue;
    }
    for (std::size_t p = 0; p < pfds.size(); ++p) {
      Conn& c = *polled[p];
      const auto conn_index = static_cast<std::size_t>(&c - conns.data());
      if ((pfds[p].revents & POLLOUT) != 0 && !Flush(&c)) {
        std::fprintf(stderr, "servebench load: connection broke on send\n");
        return 1;
      }
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[1 << 16];
      long n = 0;
      while ((n = tlp::net::ReadSome(c.fd.get(), buf, sizeof buf)) > 0) {
        c.decoder.Append(buf, static_cast<std::size_t>(n));
      }
      std::string payload;
      while (c.awaiting && c.decoder.Next(&payload)) {
        const double done = NowSeconds();
        last_progress = done;
        Reply reply;
        if (!tlp::net::ParseReply(payload, &reply)) {
          std::fprintf(stderr, "servebench load: malformed reply to '%s'\n",
                       c.current.text.c_str());
          return 1;
        }
        if (reply.kind == Reply::Kind::kBusy) {
          ++t.busy;
          NoteFailure(&t, "BUSY <- " + c.current.text);
          c.backoff = c.backoff == 0 ? 0.0005 : std::min(c.backoff * 2, 0.016);
          c.retry_at = done + c.backoff;
          break;
        }
        c.awaiting = false;
        const bool in_window = done >= measure_start && done <= measure_end;
        const std::size_t slice =
            in_window ? std::min(slices - 1,
                                 static_cast<std::size_t>(
                                     (done - measure_start) / slice_len))
                      : 0;
        if (in_window) ++t.in_slice[slice];
        if (reply.kind == Reply::Kind::kErr) {
          ++t.errors;
          NoteFailure(&t, "ERR " + reply.error_class + " " +
                              reply.error_message + " <- " + c.current.text);
        } else {
          if (in_window && c.first_send >= measure_start) {
            t.latency_us[ReportIndex(c.current.kind)][slice].push_back(
                (done - c.first_send) * 1e6);
          }
          if (!IsRead(c.current.kind) &&
              (reply.rows.size() != 1 || reply.rows[0] != "1")) {
            ++t.update_mismatches;
            NoteFailure(&t, "update reply is not \"1\" <- " + c.current.text);
          }
          if (c.sample) {
            t.samples.push_back(Sample{c.current, conn_index,
                                       c.stream.own_private(),
                                       std::move(reply.rows)});
          }
        }
        if (done < measure_end) StartNext(&c, check_every, done, &t);
      }
      // n: 0 = EOF, -1 = drained, -2 = error (tlp::net::ReadSome).
      if (c.awaiting && c.retry_at == 0 && !Flush(&c)) n = -2;
      if (n == -2 || (n == 0 && c.awaiting)) {
        std::fprintf(stderr, "servebench load: connection closed mid-run\n");
        return 1;
      }
      if (c.decoder.overflowed()) {
        std::fprintf(stderr, "servebench load: oversized reply to '%s'\n",
                     c.current.text.c_str());
        return 1;
      }
    }
  }

  pin.reset();
  // WALSTATS after the load: the update count it reports is final.
  std::map<std::string, double> wal;
  std::size_t expected_live = 0;
  bool live_count_ok = true;
  std::vector<tlp::BoxEntry> base;
  if (check_every > 0 || w->live) {
    if (tlp::Status s = tlp::LoadMbrCsv(csv, &base); !s.ok()) {
      std::fprintf(stderr, "servebench load: %s\n", s.message().c_str());
      return 1;
    }
  }
  if (w->live) {
    if (!FetchWalStats(host, port, &wal)) {
      std::fprintf(stderr, "servebench load: WALSTATS failed\n");
      return 1;
    }
    expected_live = base.size();
    for (const Conn& c : conns) {
      if (c.stream.own_private()) ++expected_live;
    }
    live_count_ok = wal["live_count"] == static_cast<double>(expected_live);
  }

  // The checks run after the timed phase, so they may use every core.
  const Oracle oracle(std::move(base), seed);
  std::vector<std::string> verdicts(t.samples.size());
  {
    const std::size_t threads =
        std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    std::vector<std::jthread> pool;
    for (std::size_t i = 0; i < threads; ++i) {
      pool.emplace_back([&, i] {
        for (std::size_t j = i; j < t.samples.size(); j += threads) {
          const Sample& s = t.samples[j];
          try {
            verdicts[j] = oracle.Check(s.statement, s.conn, s.own, w->live,
                                       s.rows);
          } catch (const std::exception& e) {
            verdicts[j] = std::string("oracle failed: ") + e.what();
          }
        }
      });
    }
  }
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (std::size_t j = 0; j < verdicts.size(); ++j) {
    if (verdicts[j].empty()) continue;
    if (++mismatches == 1) {
      first_mismatch = verdicts[j] + " <- " + t.samples[j].statement.text;
    }
  }
  if (!live_count_ok) {
    ++mismatches;
    if (first_mismatch.empty()) {
      first_mismatch = "WALSTATS live_count " +
                       JsonNumber(wal["live_count"]) + ", expected " +
                       std::to_string(expected_live);
    }
  }
  mismatches += t.update_mismatches;
  if (first_mismatch.empty()) first_mismatch = t.first_failure;

  std::string kinds;
  for (std::size_t k = 0; k < kReportKinds; ++k) {
    std::vector<double> all;
    std::vector<double> group;
    std::vector<double> group_p50;
    std::vector<double> group_p99;
    for (const std::vector<double>& v : t.latency_us[k]) {
      all.insert(all.end(), v.begin(), v.end());
      group.insert(group.end(), v.begin(), v.end());
      if (group.size() < kGroupSamples) continue;
      group_p50.push_back(Percentile(&group, 0.50));
      group_p99.push_back(Percentile(&group, 0.99));
      group.clear();
    }
    if (all.empty()) continue;
    if (!kinds.empty()) kinds += ", ";
    const double mean = Mean(all);
    const double p50 = Percentile(&all, 0.50);
    kinds += JsonString(kReportNames[k]) +
             ": {\"n\": " + std::to_string(all.size()) +
             ", \"p50_us\": " + JsonNumber(p50) +
             ", \"p99_us\": " + JsonNumber(Percentile(&all, 0.99)) +
             ", \"mean_us\": " + JsonNumber(mean) +
             ", \"groups\": " + std::to_string(group_p50.size()) +
             ", \"group_p50_us\": " + JsonNumber(Percentile(&group_p50, 0.5)) +
             ", \"group_p99_us\": " + JsonNumber(Percentile(&group_p99, 0.5)) +
             "}";
  }
  std::size_t in_window = 0;
  std::vector<double> slice_throughput;
  for (const std::size_t n : t.in_slice) {
    in_window += n;
    slice_throughput.push_back(static_cast<double>(n) / slice_len);
  }
  std::string walstats;
  for (const auto& [key, value] : wal) {
    if (!walstats.empty()) walstats += ", ";
    walstats += JsonString(key) + ": " + JsonNumber(value);
  }
  const std::size_t failed = t.errors + t.busy;
  std::printf(
      "{\"attempted\": %zu, \"failed\": %zu, \"errors\": %zu, \"busy\": %zu, "
      "\"seconds\": %s, \"slices\": %zu, \"throughput_ops\": %s, "
      "\"slice_throughput_ops\": %s, \"kinds\": {%s}, "
      "\"checked\": %zu, \"mismatches\": %zu, \"first_problem\": %s, "
      "\"walstats\": {%s}}\n",
      t.attempted, failed, t.errors, t.busy, JsonNumber(seconds).c_str(),
      slices, JsonNumber(static_cast<double>(in_window) / seconds).c_str(),
      JsonNumber(Percentile(&slice_throughput, 0.5)).c_str(),
      kinds.c_str(), t.samples.size() + (w->live ? 1 : 0), mismatches,
      JsonString(first_mismatch).c_str(), walstats.c_str());
  return failed == 0 && mismatches == 0 ? 0 : 1;
}

}  // namespace servebench
