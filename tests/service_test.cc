// The query-service front-end: admission-controller policy (FIFO order,
// priority aging, shedding) driven with synthetic clocks, the wire protocol
// (parse and serialize), the shared admission constants, and live socket
// sessions against a running QueryService — round-trips, pipelined FIFO,
// burst shedding with a surviving server, a client that stops reading, a
// half-closed client, a failed Start, and the determinism contract (served
// bytes identical to direct Engine::RunPlan at 1/2/4/8 workers).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "mutate.h"
#include "sched/morsel_scheduler.h"
#include "service/admission.h"
#include "service/admission_limits.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "workload/tpch.h"

namespace apq {
namespace service {
namespace {

// ---- shared admission constants ---------------------------------------------

TEST(AdmissionLimitsTest, GrantFormulaMatchesTheVectorwiseRule) {
  // First client: the whole machine. Later clients: cores / active.
  EXPECT_EQ(AdmissionGrant(32, 0), 32);
  EXPECT_EQ(AdmissionGrant(32, 1), 32);
  EXPECT_EQ(AdmissionGrant(32, 2), 16);
  EXPECT_EQ(AdmissionGrant(32, 4), 8);
  EXPECT_EQ(AdmissionGrant(32, 64), 1);  // floor at one worker
  EXPECT_EQ(AdmissionGrant(0, 3), 1);
}

TEST(AdmissionLimitsTest, ShortQueriesAgeFasterThanHeavies) {
  EXPECT_GT(AgingScore(/*heavy=*/false, 1e6),
            AgingScore(/*heavy=*/true, 1e6));
  // Weight ratio is the promotion horizon: a short arriving t after a heavy
  // overtakes it once wait_short * w_short > wait_heavy * w_heavy.
  EXPECT_DOUBLE_EQ(AgingScore(false, 1e6), 1e6 * kShortAgingWeight);
  EXPECT_DOUBLE_EQ(AgingScore(true, 1e6), 1e6 * kHeavyAgingWeight);
}

// ---- admission controller (synthetic clocks, no threads) --------------------

AdmissionConfig TinyConfig(int max_concurrent, std::size_t depth) {
  AdmissionConfig cfg;
  cfg.max_concurrent = max_concurrent;
  cfg.max_queue_depth = depth;
  return cfg;
}

TEST(AdmissionControllerTest, SameClassClaimsAreFifo) {
  AdmissionController ac(TinyConfig(1, 64));
  for (uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(ac.Enqueue(id, /*heavy=*/true, /*now_ns=*/1000.0 + id),
              AdmitResult::kQueued);
  }
  uint64_t id = 0;
  double wait = 0;
  for (uint64_t expect = 1; expect <= 5; ++expect) {
    ASSERT_TRUE(ac.TryClaim(/*now_ns=*/2000.0, &id, &wait));
    EXPECT_EQ(id, expect);  // arrival order: equal weights resolve FIFO
    ac.Release();
  }
  EXPECT_FALSE(ac.TryClaim(2000.0, &id, &wait));
  EXPECT_EQ(ac.Stats().promoted_total, 0u);  // pure FIFO, nothing jumped
}

TEST(AdmissionControllerTest, AgingPromotesAStarvedShortSelect) {
  AdmissionController ac(TinyConfig(1, 64));
  // A burst of heavies lands first; a short select arrives later.
  ASSERT_EQ(ac.Enqueue(1, true, 0.0), AdmitResult::kQueued);
  ASSERT_EQ(ac.Enqueue(2, true, 0.0), AdmitResult::kQueued);
  ASSERT_EQ(ac.Enqueue(3, false, 900.0), AdmitResult::kQueued);

  // At t=1000: heavies have waited 1000 (score 1000), the short 100
  // (score 400). FIFO wins — no premature promotion.
  uint64_t id = 0;
  double wait = 0;
  ASSERT_TRUE(ac.TryClaim(1000.0, &id, &wait));
  EXPECT_EQ(id, 1u);
  EXPECT_DOUBLE_EQ(wait, 1000.0);

  // By t=1400: heavy #2 scores 1400, the short (1400-900)*4 = 2000 — the
  // short overtakes the older heavy.
  ASSERT_TRUE(ac.TryClaim(1400.0, &id, &wait));
  EXPECT_EQ(id, 3u);
  EXPECT_DOUBLE_EQ(wait, 500.0);
  EXPECT_EQ(ac.Stats().promoted_total, 1u);

  // The heavy is never starved: its score keeps growing and it drains last.
  ASSERT_TRUE(ac.TryClaim(1500.0, &id, &wait));
  EXPECT_EQ(id, 2u);
}

TEST(AdmissionControllerTest, ShedsAtDepthPlusFreeSlots) {
  AdmissionController ac(TinyConfig(1, 2));
  // Handoff flows through the queue, so each free executor slot extends
  // the depth bound by one: idle single executor + depth 2 admits 3.
  ASSERT_EQ(ac.Enqueue(1, true, 0.0), AdmitResult::kQueued);
  ASSERT_EQ(ac.Enqueue(2, true, 0.0), AdmitResult::kQueued);
  ASSERT_EQ(ac.Enqueue(3, true, 0.0), AdmitResult::kQueued);
  EXPECT_EQ(ac.Enqueue(4, true, 0.0), AdmitResult::kShed);

  uint64_t id = 0;
  double wait = 0;
  ASSERT_TRUE(ac.TryClaim(1.0, &id, &wait));  // active=1, queue back to 2

  // Slot held and the queue at depth: arrivals shed, counted but not
  // enqueued.
  EXPECT_EQ(ac.Enqueue(5, true, 2.0), AdmitResult::kShed);
  const AdmissionStats s = ac.Stats();
  EXPECT_EQ(s.shed_total, 2u);
  EXPECT_EQ(s.queued, 2u);
  EXPECT_EQ(s.queue_depth_peak, 3u);

  // Finishing the claimed query frees its slot and one more admit fits.
  ac.Release();
  EXPECT_EQ(ac.Enqueue(6, true, 3.0), AdmitResult::kQueued);
}

TEST(AdmissionControllerTest, ShutdownShedsNewAndDrainsQueued) {
  AdmissionController ac(TinyConfig(2, 8));
  ASSERT_EQ(ac.Enqueue(1, false, 0.0), AdmitResult::kQueued);
  ac.Shutdown();
  EXPECT_EQ(ac.Enqueue(2, false, 1.0), AdmitResult::kShed);
  uint64_t id = 0;
  double wait = 0;
  EXPECT_TRUE(ac.WaitClaim(&id, &wait));  // drains the queued entry
  EXPECT_EQ(id, 1u);
  ac.Release();
  EXPECT_FALSE(ac.WaitClaim(&id, &wait));  // then reports shutdown
}

// ---- wire protocol ----------------------------------------------------------

TEST(ProtocolTest, ParsesQueryTagAndSelectivity) {
  Request req;
  ASSERT_TRUE(ParseRequest("RUN Q6", &req).ok());
  EXPECT_EQ(req.query, "Q6");
  EXPECT_EQ(req.tag, 0u);
  EXPECT_LT(req.sel, 0.0);

  ASSERT_TRUE(ParseRequest("RUN Q9 tag=42", &req).ok());
  EXPECT_EQ(req.query, "Q9");
  EXPECT_EQ(req.tag, 42u);

  ASSERT_TRUE(ParseRequest("RUN Q6 tag=7 sel=0.25", &req).ok());
  EXPECT_DOUBLE_EQ(req.sel, 0.25);
}

TEST(ProtocolTest, RejectsMalformedLinesWithoutCrashing) {
  Request req;
  EXPECT_FALSE(ParseRequest("", &req).ok());
  EXPECT_FALSE(ParseRequest("GET Q6", &req).ok());
  EXPECT_FALSE(ParseRequest("RUN", &req).ok());
  EXPECT_FALSE(ParseRequest("RUN Q6 tag=abc", &req).ok());
  // Tags are digits only (util/env.h ParseDecimal), so they echo verbatim.
  EXPECT_FALSE(ParseRequest("RUN Q6 tag=-1", &req).ok());
  EXPECT_FALSE(ParseRequest("RUN Q6 tag=+7", &req).ok());
  EXPECT_FALSE(ParseRequest("RUN Q6 sel=1.5", &req).ok());
  EXPECT_FALSE(ParseRequest("RUN Q6 sel=-0.1", &req).ok());
  EXPECT_FALSE(ParseRequest("RUN Q6 sel=nan", &req).ok());
  EXPECT_FALSE(ParseRequest("RUN Q6 sel=NAN", &req).ok());
  EXPECT_FALSE(ParseRequest("RUN Q6 bogus=1", &req).ok());
  EXPECT_FALSE(ParseRequest("RUN Q6 =1", &req).ok());
}

// Seeded mutations of valid request lines: the parser never crashes, and
// every line it accepts carries a sel that is absent or within [0, 1].
TEST(ProtocolTest, SeededMutationsKeepAcceptedSelInRange) {
  const std::vector<std::string> seeds = {
      "RUN Q6", "RUN Q9 tag=42", "RUN Q6 tag=7 sel=0.25",
      "RUN Q6 sel=1 tag=18446744073709551615", "RUN Q14 sel=0.5e-1"};
  Rng rng(16);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string line = Mutate(seeds[rng.Uniform(seeds.size())], rng);
    Request req;
    if (!ParseRequest(line, &req).ok()) continue;
    ++accepted;
    EXPECT_TRUE(req.sel == -1.0 || (req.sel >= 0.0 && req.sel <= 1.0))
        << "sel=" << req.sel << " from '" << line << "'";
  }
  EXPECT_GT(accepted, 0);
}

TEST(ProtocolTest, ErrResponseIsTypedAndSingleLine) {
  const std::string err = ErrResponse(ErrType::kShed, 9, "queue\nfull");
  EXPECT_EQ(err, "ERR SHED tag=9 queue full\nEND\n");
  EXPECT_EQ(std::string(ErrTypeName(ErrType::kParse)), "PARSE");
  EXPECT_EQ(std::string(ErrTypeName(ErrType::kPlan)), "PLAN");
  EXPECT_EQ(std::string(ErrTypeName(ErrType::kExec)), "EXEC");
}

TEST(ProtocolTest, ScalarSerializationRoundTripsExactDoubles) {
  Intermediate r;
  r.kind = Intermediate::Kind::kScalar;
  r.scalar = 0.1 + 0.2;  // not 0.3 in binary; %.17g must preserve the bits
  r.scalar_count = 3;
  const std::string s = SerializeResult(r);
  double parsed = 0;
  long long count = 0;
  ASSERT_EQ(std::sscanf(s.c_str(), "ROW %lf %lld", &parsed, &count), 2);
  EXPECT_EQ(parsed, 0.1 + 0.2);  // bit-exact, not approximately
  EXPECT_EQ(count, 3);
}

// ---- service config ---------------------------------------------------------

TEST(ServiceConfigTest, HeavyClassificationMatchesThePaperSplit) {
  EXPECT_FALSE(IsHeavyQuery("Q6"));
  EXPECT_FALSE(IsHeavyQuery("Q14"));
  EXPECT_TRUE(IsHeavyQuery("Q4"));
  EXPECT_TRUE(IsHeavyQuery("Q9"));
  EXPECT_TRUE(IsHeavyQuery("Q19"));
}

// ---- live socket sessions ---------------------------------------------------

// Socket reads see a response the instant the write lands, which can be a
// hair before the executor bumps its completion counters; stats assertions
// poll briefly instead of racing.
template <typename F>
bool Eventually(F f, int ms = 2000) {
  for (int i = 0; i < ms; ++i) {
    if (f()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return f();
}

std::shared_ptr<Catalog> TestCatalog() {
  static std::shared_ptr<Catalog> catalog = [] {
    TpchConfig cfg;
    cfg.lineitem_rows = 20'000;
    return Tpch::Generate(cfg);
  }();
  return catalog;
}

sockaddr_in Loopback(int port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  return addr;
}

// A blocking line-protocol client: one connected session.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const sockaddr_in addr = Loopback(port);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  // Bounds every recv, so a server that never answers fails the test
  // instead of hanging it.
  void SetRecvTimeout(int seconds) {
    timeval tv{seconds, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  // Closes the sending side only (half-close).
  void ShutdownSend() { ::shutdown(fd_, SHUT_WR); }
  // True when the server has closed the session: recv reports end of
  // stream.
  bool ClosedByServer() {
    char c;
    return ::recv(fd_, &c, 1, 0) == 0;
  }

  void Send(const std::string& data) {
    ASSERT_EQ(::send(fd_, data.data(), data.size(), 0),
              static_cast<ssize_t>(data.size()));
  }

  // Reads until `count` END-terminated response blocks have arrived.
  std::string ReadResponses(int count) {
    std::string out;
    int seen = 0;
    char buf[4096];
    while (seen < count) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
      seen = 0;
      size_t pos = 0;
      while ((pos = out.find("END\n", pos)) != std::string::npos) {
        ++seen;
        pos += 4;
      }
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

std::vector<std::string> SplitBlocks(const std::string& responses) {
  std::vector<std::string> blocks;
  size_t start = 0, pos = 0;
  while ((pos = responses.find("END\n", start)) != std::string::npos) {
    blocks.push_back(responses.substr(start, pos + 4 - start));
    start = pos + 4;
  }
  return blocks;
}

// First line of a response block.
std::string Header(const std::string& block) {
  return block.substr(0, block.find('\n'));
}

TEST(QueryServiceTest, RoundTripsAQueryOverALiveSocket) {
  QueryService svc;
  ServiceConfig cfg;
  cfg.max_concurrent = 2;
  cfg.morsel_workers = 2;
  ASSERT_TRUE(svc.Start(TestCatalog(), cfg).ok());
  ASSERT_GT(svc.port(), 0);

  Client c(svc.port());
  ASSERT_TRUE(c.connected());
  c.Send("RUN Q6 tag=11\n");
  const std::string resp = c.ReadResponses(1);
  EXPECT_EQ(resp.rfind("OK id=", 0), 0u) << resp;
  EXPECT_NE(resp.find(" tag=11 "), std::string::npos) << resp;
  EXPECT_NE(resp.find("ROW "), std::string::npos) << resp;
  EXPECT_NE(resp.find("queue_wait_ns="), std::string::npos) << resp;

  EXPECT_TRUE(Eventually(
      [&] { return svc.Stats().admission.completed_total == 1; }));
  const ServiceStats s = svc.Stats();
  EXPECT_EQ(s.requests_total, 1u);
  EXPECT_EQ(s.responses_total, 1u);
  svc.Stop();
  EXPECT_FALSE(svc.running());
}

TEST(QueryServiceTest, TypedErrorsForParseAndPlanFailures) {
  QueryService svc;
  ServiceConfig cfg;
  cfg.max_concurrent = 1;
  cfg.morsel_workers = 2;
  ASSERT_TRUE(svc.Start(TestCatalog(), cfg).ok());

  Client c(svc.port());
  ASSERT_TRUE(c.connected());
  c.Send("FLY Q6\nRUN Q6 tag=-1\nRUN Q99 tag=5\nRUN Q9 sel=0.5 tag=6\n"
         "RUN Q9 sel=nan tag=8\nRUN Q6 tag=7\n");
  const auto blocks = SplitBlocks(c.ReadResponses(6));
  ASSERT_EQ(blocks.size(), 6u);
  EXPECT_EQ(blocks[0].rfind("ERR PARSE tag=0 ", 0), 0u) << blocks[0];
  EXPECT_EQ(blocks[1].rfind("ERR PARSE tag=0 ", 0), 0u) << blocks[1];
  EXPECT_NE(blocks[1].find("bad tag '-1'"), std::string::npos) << blocks[1];
  EXPECT_EQ(blocks[2].rfind("ERR PLAN tag=5 ", 0), 0u) << blocks[2];
  EXPECT_NE(blocks[2].find("unknown query 'Q99'"), std::string::npos);
  EXPECT_EQ(blocks[3].rfind("ERR PLAN tag=6 ", 0), 0u) << blocks[3];
  EXPECT_NE(blocks[3].find("sel= is only valid for Q6"), std::string::npos);
  // NaN is no fraction in [0,1]: rejected while parsing, before the tag.
  EXPECT_EQ(blocks[4].rfind("ERR PARSE tag=0 ", 0), 0u) << blocks[4];
  // The session survives every error and still serves real queries.
  EXPECT_EQ(blocks[5].rfind("OK id=", 0), 0u) << blocks[5];
  svc.Stop();
}

TEST(QueryServiceTest, PipelinedBurstStaysFifoAndBoundsConcurrency) {
  QueryService svc;
  ServiceConfig cfg;
  cfg.max_concurrent = 1;  // serial executor: response order == claim order
  cfg.morsel_workers = 2;
  ASSERT_TRUE(svc.Start(TestCatalog(), cfg).ok());

  Client c(svc.port());
  ASSERT_TRUE(c.connected());
  // Same-class burst: aging cannot reorder equal weights, so claims are
  // FIFO and the tags come back in send order.
  std::string burst;
  for (int i = 1; i <= 6; ++i) {
    burst += "RUN Q6 tag=" + std::to_string(i) + "\n";
  }
  c.Send(burst);
  const auto blocks = SplitBlocks(c.ReadResponses(6));
  ASSERT_EQ(blocks.size(), 6u);
  for (int i = 1; i <= 6; ++i) {
    EXPECT_NE(Header(blocks[static_cast<size_t>(i - 1)])
                  .find(" tag=" + std::to_string(i) + " "),
              std::string::npos)
        << blocks[static_cast<size_t>(i - 1)];
  }
  // The burst outran the single executor: entries waited in the queue and
  // the peak depth shows it.
  EXPECT_TRUE(Eventually(
      [&] { return svc.Stats().admission.completed_total == 6; }));
  const ServiceStats s = svc.Stats();
  EXPECT_GE(s.admission.queue_depth_peak, 1u);
  EXPECT_EQ(s.admission.shed_total, 0u);
  svc.Stop();
}

TEST(QueryServiceTest, OverloadShedsTypedErrorAndServerSurvives) {
  QueryService svc;
  ServiceConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queue_depth = 2;
  cfg.morsel_workers = 2;
  ASSERT_TRUE(svc.Start(TestCatalog(), cfg).ok());

  Client c(svc.port());
  ASSERT_TRUE(c.connected());
  // 10 pipelined heavies against one executor and depth 2: the structural
  // admit bound is depth + free slots = 3, so the tail MUST shed.
  std::string burst;
  for (int i = 1; i <= 10; ++i) {
    burst += "RUN Q9 tag=" + std::to_string(i) + "\n";
  }
  c.Send(burst);
  const auto blocks = SplitBlocks(c.ReadResponses(10));
  ASSERT_EQ(blocks.size(), 10u);
  int ok = 0, shed = 0;
  for (const std::string& b : blocks) {
    if (b.rfind("OK ", 0) == 0) ++ok;
    if (b.rfind("ERR SHED ", 0) == 0) {
      ++shed;
      // Shed responses are written by the reader the moment the queue
      // rejects, so they land before the queued OKs — order is not FIFO
      // here, which is exactly the fast-rejection contract.
      EXPECT_NE(b.find("retry later"), std::string::npos) << b;
    }
  }
  EXPECT_EQ(ok + shed, 10);
  EXPECT_GE(shed, 1) << "burst of 10 into depth 2 must shed";

  EXPECT_TRUE(
      Eventually([&] { return svc.Stats().responses_total == 10; }));
  EXPECT_EQ(svc.Stats().admission.shed_total, static_cast<uint64_t>(shed));

  // The server survives overload: a fresh session still round-trips.
  Client c2(svc.port());
  ASSERT_TRUE(c2.connected());
  c2.Send("RUN Q6 tag=99\n");
  EXPECT_EQ(c2.ReadResponses(1).rfind("OK id=", 0), 0u);
  svc.Stop();
}

TEST(QueryServiceTest, ClientThatStopsReadingStallsNoOtherSession) {
  QueryService svc;
  ServiceConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queue_depth = 0;
  cfg.morsel_workers = 2;
  ASSERT_TRUE(svc.Start(TestCatalog(), cfg).ok());

  // A: a 4 KB receive buffer, a pipelined flood of requests, no reads. Its
  // answers (mostly ERR SHED) pile up on the server side.
  const int a = ::socket(AF_INET, SOCK_STREAM, 0);
  const int rcvbuf = 4096;
  ::setsockopt(a, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  const sockaddr_in addr = Loopback(svc.port());
  ASSERT_EQ(::connect(a, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::thread flood([a] {
    std::string burst;
    for (int i = 0; i < 10000; ++i) burst += "RUN Q6\n";
    for (int round = 0; round < 100; ++round) {  // until the server closes A
      for (size_t off = 0; off < burst.size();) {
        const ssize_t n = ::send(a, burst.data() + off, burst.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0) return;
        off += static_cast<size_t>(n);
      }
    }
  });
  EXPECT_TRUE(Eventually([&] { return svc.Stats().requests_total > 1000; }));

  // B is answered promptly (OK or ERR SHED, whichever admission decides):
  // first while A's flood is being read, then once A's answers have backed
  // up — the server has closed A, or it has stopped taking A's requests.
  Client b(svc.port());
  ASSERT_TRUE(b.connected());
  b.SetRecvTimeout(3);
  for (int tag = 1; tag <= 2; ++tag) {
    for (uint64_t last = 0, i = 0; tag == 2 && i < 50; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const ServiceStats s = svc.Stats();
      if (s.sessions == 1 || s.requests_total == last) break;
      last = s.requests_total;
    }
    const auto t0 = std::chrono::steady_clock::now();
    b.Send("RUN Q6 tag=" + std::to_string(tag) + "\n");
    const std::string resp = b.ReadResponses(1);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    EXPECT_NE(resp.find(" tag=" + std::to_string(tag) + " "),
              std::string::npos)
        << resp;
    EXPECT_NE(resp.find("END\n"), std::string::npos) << resp;
    EXPECT_LT(secs, 2.0) << "tag=" << tag;
  }

  // A's unsent output passes the cap, the server closes A, and the session
  // count follows.
  EXPECT_TRUE(Eventually([&] { return svc.Stats().sessions == 1; }, 10000))
      << svc.Stats().sessions;

  ::shutdown(a, SHUT_RDWR);  // ends the flood if the server has not
  flood.join();
  ::close(a);
  svc.Stop();
  EXPECT_EQ(svc.Stats().sessions, 0u);
}

TEST(QueryServiceTest, HalfClosedClientStillGetsItsAnswers) {
  QueryService svc;
  ServiceConfig cfg;
  cfg.max_concurrent = 1;
  cfg.morsel_workers = 2;
  ASSERT_TRUE(svc.Start(TestCatalog(), cfg).ok());

  Client c(svc.port());
  ASSERT_TRUE(c.connected());
  c.SetRecvTimeout(5);
  c.Send("RUN Q9 tag=1\nRUN Q6 tag=2\n");
  c.ShutdownSend();
  const auto blocks = SplitBlocks(c.ReadResponses(2));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].rfind("OK id=", 0), 0u) << blocks[0];
  EXPECT_EQ(blocks[1].rfind("OK id=", 0), 0u) << blocks[1];
  // Once nothing more is owed, the server closes the session.
  EXPECT_TRUE(c.ClosedByServer());
  EXPECT_TRUE(Eventually([&] { return svc.Stats().sessions == 0; }));
  svc.Stop();
}

TEST(QueryServiceTest, FailedStartOnATakenPortLeavesNothingRunning) {
  // Hold a port with a listening socket of our own.
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr = Loopback(0);
  ASSERT_EQ(::bind(holder, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(holder, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  const auto schedulers = [] {
    const std::string json = MorselScheduler::WorkersJson();
    size_t n = 0;
    for (size_t pos = 0;
         (pos = json.find("{\"workers\":", pos)) != std::string::npos; ++pos) {
      ++n;
    }
    return n;
  };
  const size_t before = schedulers();

  QueryService svc;
  ServiceConfig cfg;
  cfg.port = ntohs(addr.sin_port);
  cfg.morsel_workers = 3;
  EXPECT_FALSE(svc.Start(TestCatalog(), cfg).ok());
  EXPECT_FALSE(svc.running());
  EXPECT_EQ(svc.fleet_workers(), 0);
  EXPECT_EQ(schedulers(), before);
  ::close(holder);
}

TEST(QueryServiceTest, DebugJsonCarriesAdmissionState) {
  QueryService svc;
  ServiceConfig cfg;
  cfg.max_concurrent = 2;
  cfg.max_queue_depth = 8;
  cfg.morsel_workers = 2;
  ASSERT_TRUE(svc.Start(TestCatalog(), cfg).ok());

  Client c(svc.port());
  ASSERT_TRUE(c.connected());
  c.Send("RUN Q6 tag=1\nRUN Q14 tag=2\n");
  c.ReadResponses(2);
  ASSERT_TRUE(Eventually(
      [&] { return svc.Stats().admission.completed_total == 2; }));

  const std::string json = svc.DebugJson();
  EXPECT_NE(json.find("\"max_concurrent\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_queue_depth\":8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"completed_total\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fleet_workers\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency_p99_ns\":"), std::string::npos) << json;

  // The /debug/service body wraps every live service.
  const std::string all = QueryService::ServiceJson();
  EXPECT_EQ(all.rfind("{\"services\":[", 0), 0u) << all;
  EXPECT_NE(all.find("\"completed_total\":2"), std::string::npos) << all;
  svc.Stop();
  EXPECT_EQ(QueryService::ServiceJson(), "{\"services\":[]}");
}

// ---- determinism: served bytes == direct engine bytes -----------------------

TEST(QueryServiceTest, ServedResultsAreBitIdenticalToDirectExecution) {
  auto catalog = TestCatalog();

  // Direct reference: a default engine, no fleet.
  std::map<std::string, std::string> reference;
  {
    Engine engine;
    for (const std::string& name : Tpch::QueryNames()) {
      auto plan = Tpch::Query(*catalog, name);
      ASSERT_TRUE(plan.ok());
      auto run = engine.RunPlan(plan.ValueOrDie());
      ASSERT_TRUE(run.ok());
      reference[name] = SerializeResult(run.ValueOrDie().result);
    }
  }

  // Morsel size and fleet width never change the bytes a client gets
  // (0 = the default morsel size; smaller sizes split the 20K-row scans and
  // the grouped aggregations).
  for (const uint64_t morsel_rows : {uint64_t{0}, uint64_t{1024},
                                     uint64_t{4096}, uint64_t{16384}}) {
    for (const int workers : {1, 2, 4, 8}) {
      QueryService svc;
      ServiceConfig cfg;
      cfg.max_concurrent = 2;
      cfg.morsel_workers = workers;
      cfg.morsel_rows = morsel_rows;
      ASSERT_TRUE(svc.Start(catalog, cfg).ok());
      Client c(svc.port());
      ASSERT_TRUE(c.connected());
      std::string burst;
      const auto names = Tpch::QueryNames();
      for (size_t i = 0; i < names.size(); ++i) {
        burst += "RUN " + names[i] + " tag=" + std::to_string(i + 1) + "\n";
      }
      c.Send(burst);
      const auto blocks =
          SplitBlocks(c.ReadResponses(static_cast<int>(names.size())));
      ASSERT_EQ(blocks.size(), names.size());
      for (const std::string& block : blocks) {
        const std::string header = Header(block);
        ASSERT_EQ(header.rfind("OK id=", 0), 0u) << header;
        // Recover which query this is from the echoed tag.
        const size_t tp = header.find(" tag=");
        const size_t tag = std::stoull(header.substr(tp + 5));
        ASSERT_GE(tag, 1u);
        ASSERT_LE(tag, names.size());
        // Body (ROW lines between header and END) must match the direct
        // serialization byte for byte.
        const size_t body_start = block.find('\n') + 1;
        const size_t body_end = block.rfind("END\n");
        const std::string body =
            block.substr(body_start, body_end - body_start);
        EXPECT_EQ(body, reference[names[tag - 1]])
            << names[tag - 1] << " at morsel_rows=" << morsel_rows << ", "
            << workers << " workers";
      }
      svc.Stop();
    }
  }
}

}  // namespace
}  // namespace service
}  // namespace apq
