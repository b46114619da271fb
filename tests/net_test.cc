// End-to-end tests for the tlp_serve network stack (src/net): wire
// framing, reply parsing, and a live QueryServer driven over loopback
// TCP — differential round-trips against direct evaluation, BUSY
// admission shedding, graceful shutdown draining, idle disconnects, and
// protocol-violation handling. The server seams (pre_eval_hook_for_test,
// ephemeral ports) keep every scenario deterministic.

#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/mutex.h"
#include "common/query_stats.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "concurrency/versioned_grid.h"
#include "core/two_layer_grid.h"
#include "grid/grid_layout.h"
#include "net/client.h"
#include "net/query_eval.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "tests/test_util.h"

namespace tlp::net {
namespace {

// --- wire layer --------------------------------------------------------------

TEST(WireTest, FramesSurviveArbitrarySegmentation) {
  const std::string payloads[] = {"", "x", "SELECT WINDOW 0 0 1 1",
                                  std::string(70'000, 'q')};
  std::string stream;
  for (const std::string& p : payloads) stream += EncodeFrame(p);

  // Deliver the byte stream in every chunk size; the decoder must emit
  // exactly the original payload sequence each time.
  for (const std::size_t chunk : {1ul, 2ul, 3ul, 4097ul, stream.size()}) {
    FrameDecoder decoder;
    std::vector<std::string> got;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      decoder.Append(stream.data() + off,
                     std::min(chunk, stream.size() - off));
      std::string payload;
      while (decoder.Next(&payload)) got.push_back(payload);
    }
    ASSERT_EQ(got.size(), 4u) << "chunk=" << chunk;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], payloads[i]) << "chunk=" << chunk;
    }
    EXPECT_EQ(decoder.pending_bytes(), 0u);
    EXPECT_FALSE(decoder.overflowed());
  }
}

TEST(WireTest, OversizedFrameOverflowsInsteadOfBuffering) {
  // A 4-byte prefix declaring > kMaxFrameBytes must poison the stream
  // immediately — no waiting for the (never-arriving) payload.
  const std::uint32_t huge = kMaxFrameBytes + 1;
  char prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  FrameDecoder decoder;
  decoder.Append(prefix, sizeof(prefix));
  std::string payload;
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_TRUE(decoder.overflowed());
}

TEST(WireTest, EncodeRefusesPayloadsOverTheCap) {
  // A u32 prefix cannot carry every size_t, and no decoder accepts a frame
  // over the cap: encoding one must fail loudly, not truncate the length.
  EXPECT_EQ(EncodeFrame(std::string(kMaxFrameBytes, 'x')).size(),
            kMaxFrameBytes + 4);
  EXPECT_THROW((void)EncodeFrame(std::string(kMaxFrameBytes + 1, 'x')),
               std::length_error);
}

TEST(WireTest, ReplyEncodingRoundTrips) {
  Reply r;
  ASSERT_TRUE(ParseReply(EncodeOkReply({"1", "2 0.5", "3"}, ""), &r));
  EXPECT_EQ(r.kind, Reply::Kind::kOk);
  EXPECT_EQ(r.count, 3u);
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[1], "2 0.5");
  EXPECT_TRUE(r.stats_json.empty());

  ASSERT_TRUE(ParseReply(EncodeOkReply({}, "{\"tiles_visited\": 4}"), &r));
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(r.stats_json, "{\"tiles_visited\": 4}");

  ASSERT_TRUE(ParseReply(EncodeErrReply("parse", 17, "expected a number"),
                         &r));
  EXPECT_EQ(r.kind, Reply::Kind::kErr);
  EXPECT_EQ(r.error_class, "parse");
  EXPECT_EQ(r.error_offset, 17u);
  EXPECT_EQ(r.error_message, "expected a number");

  ASSERT_TRUE(ParseReply(EncodeBusyReply(), &r));
  EXPECT_EQ(r.kind, Reply::Kind::kBusy);
}

TEST(WireTest, MalformedRepliesAreRejected) {
  Reply r;
  EXPECT_FALSE(ParseReply("", &r));
  EXPECT_FALSE(ParseReply("YES 3", &r));
  EXPECT_FALSE(ParseReply("OK", &r));            // no count
  EXPECT_FALSE(ParseReply("OK two", &r));        // junk count
  EXPECT_FALSE(ParseReply("OK 2\n1", &r));       // fewer rows than declared
  EXPECT_FALSE(ParseReply("OK 1\n1\n2", &r));    // extra non-STATS line
  EXPECT_FALSE(ParseReply("ERR parse xyz m", &r));
  EXPECT_FALSE(ParseReply("BUSY 1", &r));        // BUSY takes no payload
}

// --- live server -------------------------------------------------------------

/// Read statements of every kind, with every WHERE form: each comparison
/// operator, AND, OR, NOT and parentheses.
const char* const kReadCorpus[] = {
    "SELECT WINDOW 0.2 0.2 0.6 0.6",
    "SELECT WINDOW 0 0 1 1 WHERE ID < 300 AND AREA > 0.0001",
    "SELECT DISK 0.5 0.5 0.15",
    "SELECT DISK 0.9 0.1 0.2 WHERE WIDTH > 0.01",
    "SELECT KNN 0.5 0.5 25",
    "SELECT KNN 0.05 0.95 7 WHERE ID >= 600",
    "SELECT SKYLINE 0.4 0.6",
    "SELECT SKYLINE 0.5 0.5 IN 0.25 0.25 0.75 0.75",
    "SELECT DIVKNN 0.5 0.5 10 LAMBDA 0.4",
    "SELECT DIVKNN 0.2 0.8 6 LAMBDA 0.9 FETCH 48 WHERE ID != 11",
    "SELECT WINDOW 0.1 0.1 0.9 0.9 WHERE NOT (XL <= 0.3 OR YU >= 0.7)",
    "SELECT DISK 0.3 0.6 0.25 WHERE HEIGHT <= 0.02 OR ID = 5",
    "SELECT KNN 0.7 0.3 12 WHERE NOT XU < 0.5",
    "SELECT SKYLINE 0.6 0.4 WHERE YL > 0.1 AND (WIDTH < 0.02 OR XU >= 0.9)",
};

/// A grid + running server on an ephemeral loopback port.
class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    data_ = testing::RandomEntries(1200, 0.03, 991);
    grid_ = std::make_unique<TwoLayerGrid>(
        GridLayout(Box{0, 0, 1, 1}, 16, 16));
    grid_->Build(data_);
    server_ = std::make_unique<QueryServer>(*grid_, options);
  }

  void Go() { ASSERT_TRUE(server_->Start().ok()); }

  QueryClient Connected() {
    QueryClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  /// Counters are incremented by the worker AFTER the reply is written,
  /// so a client can observe its answer a beat before the counter moves;
  /// spin briefly instead of asserting an instantaneous value.
  std::uint64_t AwaitOkCount(std::uint64_t want) {
    for (int spin = 0; spin < 20'000; ++spin) {
      const std::uint64_t got = server_->counters().queries_ok;
      if (got >= want) return got;
      std::this_thread::yield();
    }
    return server_->counters().queries_ok;
  }

  std::vector<BoxEntry> data_;
  std::unique_ptr<TwoLayerGrid> grid_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServerTest, RepliesMatchDirectEvaluation) {
  StartServer();
  Go();
  QueryClient client = Connected();
  for (const char* text : kReadCorpus) {
    Query q;
    ParseError perr;
    ASSERT_TRUE(ParseQuery(text, &q, &perr)) << text;
    EvalResult direct;
    ASSERT_TRUE(EvaluateQuery(*grid_, q, &direct).ok()) << text;

    Reply reply;
    ASSERT_TRUE(client.Execute(text, &reply).ok()) << text;
    ASSERT_EQ(reply.kind, Reply::Kind::kOk) << text;
    EXPECT_EQ(reply.rows, direct.rows) << text;
  }
  EXPECT_EQ(AwaitOkCount(std::size(kReadCorpus)), std::size(kReadCorpus));
  EXPECT_EQ(server_->counters().queries_error, 0u);
}

TEST_F(ServerTest, ManyQueriesOnOneConnectionStayOrdered) {
  StartServer();
  Go();
  QueryClient client = Connected();
  // KNN k encodes the request index; the reply row count echoes it back,
  // so any reordering or cross-wiring of replies is visible.
  for (std::uint64_t k = 1; k <= 40; ++k) {
    Reply reply;
    const std::string text =
        "SELECT KNN 0.5 0.5 " + std::to_string(k);
    ASSERT_TRUE(client.Execute(text, &reply).ok());
    ASSERT_EQ(reply.kind, Reply::Kind::kOk);
    EXPECT_EQ(reply.rows.size(), k);
  }
}

TEST_F(ServerTest, ParseAndEvalErrorsComeBackClassified) {
  StartServer();
  Go();
  QueryClient client = Connected();

  Reply reply;
  ASSERT_TRUE(client.Execute("SELECT CIRCLE 0 0 1", &reply).ok());
  ASSERT_EQ(reply.kind, Reply::Kind::kErr);
  EXPECT_EQ(reply.error_class, "parse");
  EXPECT_EQ(reply.error_offset, 7u);  // offset of "CIRCLE"

  ASSERT_TRUE(client.Execute("SELECT KNN 0.5 0.5 4294967297", &reply).ok());
  ASSERT_EQ(reply.kind, Reply::Kind::kErr);
  EXPECT_EQ(reply.error_class, "eval");  // parsed fine, rejected as insane

  // The connection survives errors: a good query still works after.
  ASSERT_TRUE(client.Execute("SELECT KNN 0.5 0.5 3", &reply).ok());
  EXPECT_EQ(reply.kind, Reply::Kind::kOk);
  EXPECT_EQ(server_->counters().queries_error, 2u);
}

TEST_F(ServerTest, WithStatsAttachesPerQueryCounters) {
  StartServer();
  Go();
  QueryClient client = Connected();
  Reply reply;
  ASSERT_TRUE(
      client.Execute("SELECT WINDOW 0.1 0.1 0.9 0.9 WITH STATS", &reply)
          .ok());
  ASSERT_EQ(reply.kind, Reply::Kind::kOk);
  ASSERT_FALSE(reply.stats_json.empty());
  EXPECT_NE(reply.stats_json.find("serve/window"), std::string::npos);
  // Two-layer invariant, now visible per query over the wire.
  EXPECT_NE(reply.stats_json.find("\"posthoc_dedup\": 0"),
            std::string::npos);
}

/// Gate that lets tests hold queries inside the worker until released.
struct WorkerGate {
  tlp::Mutex mu;
  tlp::CondVar cv;
  bool open TLP_GUARDED_BY(mu) = false;
  std::atomic<int> entered{0};

  void Block() {
    entered.fetch_add(1);
    tlp::MutexLock lock(mu);
    while (!open) cv.Wait(mu);
  }
  void Release() {
    {
      tlp::MutexLock lock(mu);
      open = true;
    }
    cv.NotifyAll();
  }
  void AwaitEntered(int n) {
    while (entered.load() < n) std::this_thread::yield();
  }
};

TEST_F(ServerTest, AdmissionControlShedsBusyInsteadOfQueueing) {
  ServerOptions options;
  options.max_inflight = 1;
  StartServer(options);
  WorkerGate gate;
  server_->pre_eval_hook_for_test = [&gate] { gate.Block(); };
  Go();

  // First query occupies the only admission slot inside the worker.
  UniqueFd fd1;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server_->port(), &fd1).ok());
  ASSERT_TRUE(
      WriteAll(fd1.get(), EncodeFrame("SELECT KNN 0.5 0.5 3")).ok());
  gate.AwaitEntered(1);

  // Second connection must be shed immediately, not queued behind it.
  QueryClient client2 = Connected();
  Reply reply;
  ASSERT_TRUE(client2.Execute("SELECT KNN 0.5 0.5 3", &reply).ok());
  EXPECT_EQ(reply.kind, Reply::Kind::kBusy);

  gate.Release();
  // The held query completes normally once released.
  FrameDecoder decoder;
  std::string payload;
  char buf[4096];
  while (!decoder.Next(&payload)) {
    const long n = ReadSome(fd1.get(), buf, sizeof(buf));
    ASSERT_GE(n, 0) << "connection 1 broke";
    decoder.Append(buf, static_cast<std::size_t>(n));
  }
  ASSERT_TRUE(ParseReply(payload, &reply));
  EXPECT_EQ(reply.kind, Reply::Kind::kOk);
  EXPECT_EQ(server_->counters().busy_rejected, 1u);

  // After completion the slot frees up again. The slot is released by the
  // reactor's completion pass, which runs after the worker's reply write
  // that unblocked this thread — so a BUSY can still slip in while the
  // wake-pipe notification is in flight. Shedding is the contract; retry.
  reply.kind = Reply::Kind::kBusy;
  for (int attempt = 0; attempt < 20'000; ++attempt) {
    ASSERT_TRUE(client2.Execute("SELECT KNN 0.5 0.5 3", &reply).ok());
    if (reply.kind != Reply::Kind::kBusy) break;
    std::this_thread::yield();
  }
  EXPECT_EQ(reply.kind, Reply::Kind::kOk);
}

TEST_F(ServerTest, ShutdownDrainsInFlightQueriesBeforeExiting) {
  ServerOptions options;
  options.max_inflight = 4;
  StartServer(options);
  WorkerGate gate;
  server_->pre_eval_hook_for_test = [&gate] { gate.Block(); };
  Go();

  UniqueFd fd;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
  ASSERT_TRUE(
      WriteAll(fd.get(), EncodeFrame("SELECT WINDOW 0.2 0.2 0.4 0.4")).ok());
  gate.AwaitEntered(1);

  // Shutdown begins while the query is still executing...
  server_->RequestShutdown();
  gate.Release();
  server_->Shutdown();

  // ...yet its reply was delivered before the server exited.
  FrameDecoder decoder;
  std::string payload;
  char buf[4096];
  bool got_reply = false;
  for (;;) {
    const long n = ReadSome(fd.get(), buf, sizeof(buf));
    if (n <= 0 && n != -1) break;  // EOF/error after the drain: done
    if (n > 0) decoder.Append(buf, static_cast<std::size_t>(n));
    if (decoder.Next(&payload)) {
      got_reply = true;
      break;
    }
  }
  ASSERT_TRUE(got_reply) << "in-flight reply lost in shutdown";
  Reply reply;
  ASSERT_TRUE(ParseReply(payload, &reply));
  EXPECT_EQ(reply.kind, Reply::Kind::kOk);
  EXPECT_EQ(server_->counters().queries_ok, 1u);
}

TEST_F(ServerTest, IdleConnectionsAreDisconnected) {
  ServerOptions options;
  options.idle_timeout_ms = 50;
  StartServer(options);
  Go();

  UniqueFd fd;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
  // Send nothing; the server must close the connection (clean EOF).
  char buf[64];
  long n;
  do {
    n = ReadSome(fd.get(), buf, sizeof(buf));
  } while (n == -1 || n > 0);
  EXPECT_EQ(n, 0) << "expected EOF, got error";
  // An active connection with the same timeout stays alive across queries.
  QueryClient client = Connected();
  for (int i = 0; i < 3; ++i) {
    Reply reply;
    ASSERT_TRUE(client.Execute("SELECT KNN 0.5 0.5 2", &reply).ok());
    EXPECT_EQ(reply.kind, Reply::Kind::kOk);
  }
  EXPECT_GE(server_->counters().idle_disconnects, 1u);
}

TEST_F(ServerTest, OversizedRequestFrameDropsTheConnection) {
  StartServer();
  Go();
  UniqueFd fd;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
  const std::uint32_t huge = kMaxFrameBytes + 7;
  char prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  ASSERT_TRUE(WriteAll(fd.get(), std::string(prefix, 4)).ok());
  char buf[64];
  long n;
  do {
    n = ReadSome(fd.get(), buf, sizeof(buf));
  } while (n == -1 || n > 0);
  EXPECT_EQ(n, 0) << "expected the server to close on protocol violation";
  EXPECT_EQ(server_->counters().protocol_errors, 1u);
}

TEST(ServerLimitsTest, OversizedReplyIsAnErrorAndTheConnectionSurvives) {
  // A whole-domain WINDOW over 200k objects lists every id: ~1.3 MB of
  // rows, over the frame cap every client's decoder enforces.
  TwoLayerGrid grid(GridLayout(Box{0, 0, 1, 1}, 64, 64));
  grid.Build(testing::RandomEntries(200'000, 0.002, 996));
  QueryServer server(grid, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  Reply reply;
  ASSERT_TRUE(client.Execute("SELECT WINDOW 0 0 1 1", &reply).ok());
  ASSERT_EQ(reply.kind, Reply::Kind::kErr);
  EXPECT_EQ(reply.error_class, "eval");
  EXPECT_EQ(reply.error_offset, 0u);
  EXPECT_NE(reply.error_message.find("bytes exceeds the frame cap of " +
                                     std::to_string(kMaxFrameBytes)),
            std::string::npos)
      << reply.error_message;

  // A statement over the cap is refused client-side, before sending.
  EXPECT_EQ(client.Execute(std::string(kMaxFrameBytes + 1, ' '), &reply)
                .code(),
            StatusCode::kInvalidArgument);

  // The same connection still answers.
  ASSERT_TRUE(client.Execute("SELECT KNN 0.5 0.5 3", &reply).ok());
  ASSERT_EQ(reply.kind, Reply::Kind::kOk);
  EXPECT_EQ(reply.rows.size(), 3u);
  server.Shutdown();
  EXPECT_EQ(server.counters().queries_error, 1u);
  EXPECT_EQ(server.counters().queries_ok, 1u);
  EXPECT_EQ(server.counters().protocol_errors, 0u);
}

/// Gate where each Block() waits for its own ReleaseOne() ticket, so a
/// test can hold several queries in sequence through one hook.
struct TicketGate {
  tlp::Mutex mu;
  tlp::CondVar cv;
  int tickets TLP_GUARDED_BY(mu) = 0;
  std::atomic<int> entered{0};

  void Block() {
    entered.fetch_add(1);
    tlp::MutexLock lock(mu);
    while (tickets <= 0) cv.Wait(mu);
    --tickets;
  }
  void ReleaseOne() {
    {
      tlp::MutexLock lock(mu);
      ++tickets;
    }
    cv.NotifyAll();
  }
  void AwaitEntered(int n) {
    while (entered.load() < n) std::this_thread::yield();
  }
};

TEST_F(ServerTest, DisconnectMidQueryNeverWedgesAdmission) {
  // max_inflight = 1: a single leaked admission slot would make the server
  // answer BUSY forever. Each round parks a query in the worker, kills the
  // client mid-execution (the reply write hits EPIPE), releases the
  // worker, and proves a fresh client still gets admitted — i.e. the
  // completion path decremented inflight_ even though the connection was
  // already gone.
  ServerOptions options;
  options.max_inflight = 1;
  options.write_timeout_ms = 200;
  StartServer(options);
  TicketGate gate;
  server_->pre_eval_hook_for_test = [&gate] { gate.Block(); };
  Go();

  for (int round = 0; round < 5; ++round) {
    UniqueFd doomed;
    ASSERT_TRUE(ConnectTcp("127.0.0.1", server_->port(), &doomed).ok());
    ASSERT_TRUE(
        WriteAll(doomed.get(), EncodeFrame("SELECT KNN 0.5 0.5 3")).ok());
    gate.AwaitEntered(round + 1);
    doomed.reset();  // client vanishes while its query executes
    gate.ReleaseOne();

    // The slot must come back. BUSY is allowed transiently (the completion
    // may still be in flight); wedged-forever is the bug.
    QueryClient probe = Connected();
    Reply reply;
    bool admitted = false;
    // One ticket for the probe's eventual execution — BUSY replies come
    // straight from the reactor and never consume one, so retrying does
    // not need more.
    gate.ReleaseOne();
    for (int attempt = 0; attempt < 20'000 && !admitted; ++attempt) {
      ASSERT_TRUE(probe.Execute("SELECT KNN 0.5 0.5 2", &reply).ok());
      if (reply.kind == Reply::Kind::kOk) {
        admitted = true;
      } else {
        ASSERT_EQ(reply.kind, Reply::Kind::kBusy);
        std::this_thread::yield();
      }
    }
    EXPECT_TRUE(admitted) << "admission wedged after disconnect round "
                          << round;
  }
}

TEST_F(ServerTest, ConcurrentClientsAllGetTheirOwnAnswers) {
  ServerOptions options;
  options.max_inflight = 64;
  options.num_workers = 2;
  StartServer(options);
  Go();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  const std::uint16_t port = server_->port();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, port, &failures] {
      QueryClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kPerThread; ++i) {
        // k identifies the (thread, iteration) pair.
        const std::uint64_t k =
            1 + static_cast<std::uint64_t>(t * kPerThread + i) % 50;
        Reply reply;
        if (!client
                 .Execute("SELECT KNN 0.5 0.5 " + std::to_string(k),
                          &reply)
                 .ok() ||
            reply.kind != Reply::Kind::kOk || reply.rows.size() != k) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(AwaitOkCount(kTotal), kTotal);
}

// --- live (mutable) server ---------------------------------------------------

TEST(LiveServerTest, InsertDeleteRoundTripAndVisibility) {
  TwoLayerGrid base(GridLayout(Box{0, 0, 1, 1}, 8, 8));
  base.Build(testing::RandomEntries(200, 0.03, 992));
  ConcurrentTwoLayerGrid live(std::move(base));
  QueryServer server(live, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // A window no base entry can touch (base boxes live in [0,1]^2 with ids
  // 0..199; 7000 is fresh).
  Reply reply;
  ASSERT_TRUE(client.Execute("INSERT 7000 2.0 2.0 2.1 2.1", &reply).ok());
  ASSERT_EQ(reply.kind, Reply::Kind::kOk);
  EXPECT_EQ(reply.rows, std::vector<std::string>{"1"});

  ASSERT_TRUE(client.Execute("INSERT 7000 2.0 2.0 2.1 2.1", &reply).ok());
  ASSERT_EQ(reply.kind, Reply::Kind::kOk);
  EXPECT_EQ(reply.rows, std::vector<std::string>{"0"}) << "duplicate id";

  ASSERT_TRUE(
      client.Execute("SELECT WINDOW 1.5 1.5 3.0 3.0", &reply).ok());
  ASSERT_EQ(reply.kind, Reply::Kind::kOk);
  EXPECT_EQ(reply.rows, std::vector<std::string>{"7000"})
      << "insert invisible to a following read on the same connection";

  ASSERT_TRUE(client.Execute("DELETE 7000 2.0 2.0 2.1 2.1", &reply).ok());
  ASSERT_EQ(reply.kind, Reply::Kind::kOk);
  EXPECT_EQ(reply.rows, std::vector<std::string>{"1"});

  ASSERT_TRUE(client.Execute("DELETE 7000 2.0 2.0 2.1 2.1", &reply).ok());
  ASSERT_EQ(reply.kind, Reply::Kind::kOk);
  EXPECT_EQ(reply.rows, std::vector<std::string>{"0"}) << "already gone";

  ASSERT_TRUE(
      client.Execute("SELECT WINDOW 1.5 1.5 3.0 3.0", &reply).ok());
  ASSERT_EQ(reply.kind, Reply::Kind::kOk);
  EXPECT_TRUE(reply.rows.empty());

  server.Shutdown();
  // Applied = the two "1" statements; the "0" no-ops answered OK but
  // changed nothing.
  EXPECT_EQ(server.counters().updates_applied, 2u);
  EXPECT_EQ(server.counters().queries_ok, 6u);
  EXPECT_EQ(live.live_count(), 200u);
}

std::string BoxText(const Box& b) {
  return FormatNumber(b.xl) + " " + FormatNumber(b.yl) + " " +
         FormatNumber(b.xu) + " " + FormatNumber(b.yu);
}

/// Every corpus read evaluated on `live` must reply exactly what the
/// read-only overload replies on `oracle`.
void ExpectLiveRepliesMatchReadOnly(ConcurrentTwoLayerGrid& live,
                                    const TwoLayerGrid& oracle,
                                    const std::string& context) {
  for (const char* text : kReadCorpus) {
    Query q;
    ParseError perr;
    ASSERT_TRUE(ParseQuery(text, &q, &perr)) << text;
    EvalResult got;
    EvalResult want;
    ASSERT_TRUE(EvaluateQuery(live, q, &got).ok()) << text;
    ASSERT_TRUE(EvaluateQuery(oracle, q, &want).ok()) << text;
    EXPECT_EQ(got.rows, want.rows) << context << ": " << text;
  }
}

TEST(LiveServerTest, LiveRepliesMatchReadOnlyRepliesOnTheSameSet) {
  const auto data = testing::RandomEntries(1200, 0.03, 991);
  const GridLayout layout(Box{0, 0, 1, 1}, 16, 16);
  TwoLayerGrid oracle(layout);
  oracle.Build(data);
  TwoLayerGrid base(layout);
  base.Build(data);
  ConcurrentTwoLayerGrid::Options copts;
  copts.merge_threshold = std::numeric_limits<std::size_t>::max();
  ConcurrentTwoLayerGrid live(std::move(base), copts);

  // A scripted batch through the live statement path: delete every 5th
  // base object, re-insert a third of those with new boxes, insert fresh
  // ids, then delete a few of the fresh ones again (last op wins).
  Rng rng(997);
  const auto random_box = [&rng] {
    const double x = rng.NextDouble() * 0.97;
    const double y = rng.NextDouble() * 0.97;
    return Box{x, y, x + rng.NextDouble() * 0.03, y + rng.NextDouble() * 0.03};
  };
  const auto apply = [&live](const std::string& text) {
    Query q;
    ParseError perr;
    ASSERT_TRUE(ParseQuery(text, &q, &perr)) << text;
    EvalResult r;
    ASSERT_TRUE(EvaluateQuery(live, q, &r).ok()) << text;
    EXPECT_EQ(r.rows, std::vector<std::string>{"1"}) << text;
  };
  for (ObjectId id = 0; id < data.size(); id += 5) {
    apply("DELETE " + std::to_string(id) + " " + BoxText(data[id].box));
    ASSERT_TRUE(oracle.Delete(id, data[id].box));
  }
  for (ObjectId id = 0; id < data.size(); id += 15) {
    const BoxEntry e{random_box(), id};
    apply("INSERT " + std::to_string(id) + " " + BoxText(e.box));
    oracle.Insert(e);
  }
  std::vector<BoxEntry> fresh;
  for (ObjectId id = 5000; id < 5150; ++id) {
    fresh.push_back(BoxEntry{random_box(), id});
    apply("INSERT " + std::to_string(id) + " " + BoxText(fresh.back().box));
    oracle.Insert(fresh.back());
  }
  for (std::size_t i = 0; i < fresh.size(); i += 10) {
    apply("DELETE " + std::to_string(fresh[i].id) + " " +
          BoxText(fresh[i].box));
    ASSERT_TRUE(oracle.Delete(fresh[i].id, fresh[i].box));
  }

  ASSERT_GT(live.Acquire().overlay_size(), 0u);
  ExpectLiveRepliesMatchReadOnly(live, oracle, "unmerged overlay");
  live.Flush();
  ASSERT_EQ(live.Acquire().overlay_size(), 0u);
  ExpectLiveRepliesMatchReadOnly(live, oracle, "after Flush");
}

TEST(LiveServerTest, ReadOnlyServerRejectsUpdates) {
  TwoLayerGrid grid(GridLayout(Box{0, 0, 1, 1}, 4, 4));
  grid.Build(testing::RandomEntries(50, 0.05, 993));
  QueryServer server(grid, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  Reply reply;
  ASSERT_TRUE(client.Execute("INSERT 9000 0.1 0.1 0.2 0.2", &reply).ok());
  ASSERT_EQ(reply.kind, Reply::Kind::kErr);
  EXPECT_EQ(reply.error_class, "eval");
  EXPECT_NE(reply.error_message.find("read-only"), std::string::npos);

  // The index is untouched and reads still work.
  ASSERT_TRUE(client.Execute("SELECT KNN 0.5 0.5 3", &reply).ok());
  EXPECT_EQ(reply.kind, Reply::Kind::kOk);
  server.Shutdown();
  EXPECT_EQ(server.counters().updates_applied, 0u);
}

TEST(LiveServerTest, ConcurrentUpdatesAndReadsOverTheWire) {
  TwoLayerGrid base(GridLayout(Box{0, 0, 1, 1}, 8, 8));
  base.Build(testing::RandomEntries(300, 0.03, 994));
  ConcurrentTwoLayerGrid::Options copts;
  copts.merge_threshold = 32;  // force merges under the server
  ConcurrentTwoLayerGrid live(std::move(base), copts);
  ServerOptions options;
  options.num_workers = 3;
  QueryServer server(live, options);
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Two updater connections over disjoint id ranges plus two readers; the
  // readers only assert reply well-formedness — exactness under
  // interleaving is concurrent_grid_test's differential job; this proves
  // the wire path end to end under the same contention.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([t, port, &failures] {
      QueryClient c;
      if (!c.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(1);
        return;
      }
      const int base_id = 8000 + t * 1000;
      for (int i = 0; i < 60; ++i) {
        const std::string id = std::to_string(base_id + i % 20);
        const std::string box = " 0.4 0.4 0.45 0.45";
        Reply r;
        const std::string stmt =
            (i % 2 == 0 ? "INSERT " : "DELETE ") + id + box;
        if (!c.Execute(stmt, &r).ok() || r.kind != Reply::Kind::kOk ||
            r.rows.size() != 1) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([port, &failures] {
      QueryClient c;
      if (!c.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 60; ++i) {
        Reply r;
        if (!c.Execute("SELECT WINDOW 0.3 0.3 0.6 0.6", &r).ok() ||
            r.kind != Reply::Kind::kOk) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Shutdown();
  live.Flush();
  EXPECT_EQ(server.counters().queries_error, 0u);
  EXPECT_GT(server.counters().updates_applied, 0u);
}

}  // namespace
}  // namespace tlp::net
