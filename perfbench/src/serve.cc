// serve: the serving daemon under open-loop load. An in-process
// serve::Server (2 workers, citd's batching defaults) serves the GRU +
// attention serving model; one generator thread sends decide requests over
// at most 4 Unix-socket connections at Poisson arrival times drawn from
// the seed, in two phases:
//
//   low  — a rate at which requests rarely overlap (single Decide path);
//   closed — one caller sending its next request when the reply arrives
//          (single Decide path, no idle gaps: the end-to-end median);
//   high — a rate at which batches form but that stays well inside the
//          batched capacity of a 4-core host (about a third to a half of
//          it, depending on host load), so a slow spell of the host does
//          not turn into a growing backlog.
//
// Latency is timed from each request's due time, so a stalled generator
// or server shows up in every later request, and the generator reports
// how late it sent. Every response must parse and equal, bitwise, the
// weights a library replica of the same model gives for the same panel.
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "market/panel.h"
#include "serve/cit_model.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace citbench {
namespace {

using namespace cit;

constexpr int64_t kAssets = 4;
constexpr int kPanels = 64;          // distinct request panels per run
constexpr double kLowRate = 400.0;    // requests/s
constexpr double kHighRate = 4000.0;  // requests/s
// Shares of each round's budget; the high phase gets the rest.
constexpr double kLowShare = 0.25;
constexpr double kClosedShare = 0.15;
constexpr double kLatencyLimitUs = 2000.0;
constexpr int64_t kDrainLimitNs = 3'000'000'000;
constexpr int64_t kSpinNs = 200'000;  // generator spins this long before a send
constexpr int kRounds = 8;  // server lifetimes per run (halved when traced)

// bench_serve's serving-shaped model: the paper's "ours (GRU)" variant
// with a short window and narrow features.
core::CrossInsightConfig ServeModel() {
  core::CrossInsightConfig cfg;
  cfg.num_policies = 6;
  cfg.window = 6;
  cfg.feature_dim = 2;
  cfg.head_hidden = 8;
  cfg.critic_hidden = 8;
  cfg.seed = 23;
  cfg.backbone = core::BackboneKind::kGruAttention;
  return cfg;
}

struct Inputs {
  std::vector<std::string> lines;  // "decide ..." request lines with '\n'
  std::vector<market::PricePanel> panels;
  std::vector<std::vector<double>> expected;  // library replica weights
};

market::PricePanel PanelOf(const serve::Request& req) {
  market::PricePanel panel(req.rows, req.cols);
  for (int64_t d = 0; d < req.rows; ++d) {
    for (int64_t a = 0; a < req.cols; ++a) {
      panel.SetClose(d, a, req.prices[static_cast<size_t>(d * req.cols + a)]);
    }
  }
  panel.set_train_end(req.rows);
  return panel;
}

// Random-walk price windows drawn from the seed, and the weights a library
// replica gives for each.
bool MakeInputs(uint64_t seed, serve::ServedModel* replica, Inputs* in) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::normal_distribution<double> step(0.0, 0.02);
  std::uniform_real_distribution<double> level(5.0, 50.0);
  const int64_t rows = replica->min_days();
  for (int p = 0; p < kPanels; ++p) {
    std::string line =
        "decide " + std::to_string(rows) + " " + std::to_string(kAssets);
    std::vector<double> price(kAssets);
    for (double& v : price) v = level(rng);
    for (int64_t d = 0; d < rows; ++d) {
      for (int64_t a = 0; a < kAssets; ++a) {
        if (d > 0) price[a] *= std::exp(step(rng));
        line.push_back(' ');
        serve::AppendDouble(&line, price[a]);
      }
    }
    const serve::Request req = serve::ParseRequest(line);
    if (req.kind != serve::Request::kDecide) return false;
    market::PricePanel panel = PanelOf(req);
    auto w = replica->Decide(panel);
    if (!w.ok()) return false;
    in->expected.push_back(std::move(w).value());
    in->panels.push_back(std::move(panel));
    in->lines.push_back(line + "\n");
  }
  return true;
}

int Connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One client connection of the generator: a non-blocking outbound buffer
// (the generator never blocks on a full socket) and the FIFO of request
// indices awaiting a response (responses come back in request order).
struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<int64_t> pending;
};

struct PhaseResult {
  std::vector<double> latency_us;  // correct responses, from due time
  std::vector<double> lag_us;      // send time - due time
  int64_t sent = 0;
  int64_t ok_within_limit = 0;
  double scheduled_s = 0.0;
  bool backlog_grew = false;
  double backlog_first = 0.0;  // median outstanding, first quarter of sends
  double backlog_last = 0.0;   // median outstanding, last quarter of sends
};

// Sends an open-loop Poisson schedule of `rate` requests/s for `seconds`
// and waits for every response (up to kDrainLimitNs past the last due
// time; later ones count as failed).
PhaseResult RunPhase(std::vector<Conn>& conns, const Inputs& in, double rate,
                     double seconds, std::mt19937_64& rng, SpanLog* spans,
                     Report* r) {
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<int> pick(0, kPanels - 1);
  std::vector<int64_t> due;
  std::vector<int> panel;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    due.push_back(static_cast<int64_t>(t * 1e9));
    panel.push_back(pick(rng));
  }
  const int64_t n = static_cast<int64_t>(due.size());
  PhaseResult res;
  res.scheduled_s = seconds;
  std::vector<int64_t> sent_ns(n, 0);
  std::vector<int> outstanding_at(n, 0);
  std::vector<char> done(n, 0);
  std::vector<int64_t> done_ns(n, 0);
  int64_t outstanding = 0;
  const int64_t start = NowNs() + 1'000'000;
  for (int64_t& d : due) d += start;

  auto fail = [&](int64_t i, const std::string& why) {
    done[i] = 1;
    r->Fail(why);
  };
  auto on_line = [&](Conn& c, const std::string& line, int64_t now) {
    if (c.pending.empty()) {
      r->Fail("unsolicited response");
      return;
    }
    const int64_t i = c.pending.front();
    c.pending.pop_front();
    --outstanding;
    uint64_t gen = 0;
    std::vector<double> w;
    if (!serve::ParseDecideResponse(line, &gen, &w)) {
      fail(i, "refused or malformed response: " + line.substr(0, 80));
      return;
    }
    if (gen != 0 || !BitwiseEqual(w, in.expected[panel[i]])) {
      fail(i, "served weights differ from the library replica");
      return;
    }
    done[i] = 1;
    done_ns[i] = now;
    const double us = static_cast<double>(now - due[i]) * 1e-3;
    res.latency_us.push_back(us);
    if (us <= kLatencyLimitUs) ++res.ok_within_limit;
  };

  std::vector<pollfd> pfds(conns.size());
  int64_t next = 0;
  bool dead = false;
  while (!dead) {
    int64_t now = NowNs();
    while (next < n && due[next] <= now) {
      Conn& c = conns[next % conns.size()];
      c.out += in.lines[panel[next]];
      c.pending.push_back(next);
      sent_ns[next] = now;
      outstanding_at[next] = static_cast<int>(outstanding);
      ++outstanding;
      ++next;
    }
    for (size_t k = 0; k < conns.size(); ++k) {
      Conn& c = conns[k];
      while (c.out_off < c.out.size()) {
        const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w > 0) {
          c.out_off += static_cast<size_t>(w);
        } else if (w < 0 && errno == EINTR) {
          continue;
        } else {
          if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) dead = true;
          break;
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
      pfds[k] = {c.fd,
                 static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                 0};
    }
    if (next == n && outstanding == 0) break;
    if (next == n && now - due[n - 1] > kDrainLimitNs) break;
    // While responses are outstanding, and from shortly before each due
    // time, poll without sleeping (yielding the core): waking from sleep
    // can take hundreds of microseconds on a virtualized host, which would
    // show up as lag or inflate the measured latency.
    int64_t wait_ns = next < n ? due[next] - now - kSpinNs : 1'000'000;
    if (outstanding > 0 || wait_ns <= 0) {
      wait_ns = 0;
      sched_yield();
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    now = NowNs();
    for (size_t k = 0; k < conns.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[k];
      char buf[65536];
      const ssize_t got = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR)) {
        dead = true;
        break;
      }
      if (got < 0) continue;
      c.in.append(buf, static_cast<size_t>(got));
      size_t pos = 0;
      for (size_t nl; (nl = c.in.find('\n', pos)) != std::string::npos;
           pos = nl + 1) {
        on_line(c, c.in.substr(pos, nl - pos), now);
      }
      c.in.erase(0, pos);
    }
  }
  res.sent = next;
  for (int64_t i = 0; i < n; ++i) {
    if (i < next) {
      res.lag_us.push_back(static_cast<double>(sent_ns[i] - due[i]) * 1e-3);
    }
    if (!done[i]) fail(i, dead ? "connection lost" : "no response in time");
  }
  r->attempted += n;
  if (spans != nullptr && n > 0) {
    const uint64_t phase = spans->NewId();
    spans->Add("serve.phase", phase, 0, due[0], NowNs());
    for (int64_t i = 0; i < n; ++i) {
      if (done_ns[i] != 0) {
        spans->Add("serve.request", spans->NewId(), phase, due[i], done_ns[i]);
      }
    }
  }
  // Backlog growth: outstanding requests seen at send time, median over
  // the last quarter of the schedule against the first. Medians and the
  // margin ride out a transient host stall (seen to leave ~25 queued); a
  // queue that keeps growing means the rate is beyond capacity and the
  // latencies are not steady-state.
  const int64_t q = n / 4;
  if (q > 0) {
    std::vector<double> first(outstanding_at.begin(),
                              outstanding_at.begin() + q);
    std::vector<double> last(outstanding_at.end() - q, outstanding_at.end());
    res.backlog_first = Median(first);
    res.backlog_last = Median(last);
    res.backlog_grew = res.backlog_last > 4.0 * res.backlog_first + 32.0;
  }
  for (Conn& c : conns) {
    c.pending.clear();
    c.in.clear();
    c.out.clear();
    c.out_off = 0;
  }
  return res;
}

// Latency samples pooled over rounds.
// One caller that sends a request, waits for its reply and sends the next:
// the unloaded latency of the single Decide path, with the server's
// threads never idle long enough to pay a cold wake-up.
PhaseResult RunClosedLoop(Conn& c, const Inputs& in, double seconds,
                          std::mt19937_64& rng, SpanLog* spans, Report* r) {
  std::uniform_int_distribution<int> pick(0, kPanels - 1);
  PhaseResult res;
  res.scheduled_s = seconds;
  const uint64_t phase = spans != nullptr ? spans->NewId() : 0;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  for (int64_t t0 = start; t0 < end; t0 = NowNs()) {
    const int p = pick(rng);
    ++r->attempted;
    ++res.sent;
    const std::string& line = in.lines[p];
    bool ok = true;
    for (size_t off = 0; ok && off < line.size();) {
      const ssize_t w = ::send(c.fd, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<size_t>(w);
      } else if (!(w < 0 && errno == EINTR)) {
        ok = false;
      }
    }
    size_t nl = std::string::npos;
    while (ok && (nl = c.in.find('\n')) == std::string::npos) {
      if (NowNs() - t0 > kDrainLimitNs) ok = false;
      char buf[4096];
      const ssize_t got = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (got > 0) {
        c.in.append(buf, static_cast<size_t>(got));
      } else if (got == 0 || (errno != EAGAIN && errno != EINTR)) {
        ok = false;
      } else {
        sched_yield();
      }
    }
    const int64_t t1 = NowNs();
    if (!ok) {
      r->Fail("closed-loop request lost");
      break;
    }
    uint64_t gen = 0;
    std::vector<double> w;
    const bool parsed = serve::ParseDecideResponse(
        std::string_view(c.in).substr(0, nl), &gen, &w);
    c.in.erase(0, nl + 1);
    if (!parsed || gen != 0 || !BitwiseEqual(w, in.expected[p])) {
      r->Fail("served weights differ from the library replica");
      continue;
    }
    res.latency_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (spans != nullptr) {
      spans->Add("serve.request", spans->NewId(), phase, t0, t1);
    }
  }
  if (spans != nullptr) spans->Add("serve.phase", phase, 0, start, NowNs());
  return res;
}

struct Phases {
  PhaseResult low, closed, high;
  std::vector<double> setup_s;  // per round set-up time
};

void Pool(const PhaseResult& from, PhaseResult* into) {
  into->latency_us.insert(into->latency_us.end(), from.latency_us.begin(),
                          from.latency_us.end());
  into->lag_us.insert(into->lag_us.end(), from.lag_us.begin(),
                      from.lag_us.end());
  into->sent += from.sent;
  into->ok_within_limit += from.ok_within_limit;
  into->scheduled_s += from.scheduled_s;
}

// One server lifetime. Set-up builds a reference replica and the request
// inputs from the seed (which must match the run's), starts the server and
// connects; then a warm-up (checked, not timed) records the single and
// stacked plans on each replica, and the low and the high phase run.
// Fresh servers per round average a run over several thread placements,
// which on a virtualized host shift low-load latency by more than a
// round's sampling error.
bool RunRound(const serve::ServerConfig& scfg,
              const serve::ModelFactory& factory, uint64_t seed,
              const Inputs& in, double budget_s, std::mt19937_64& rng,
              SpanLog* spans, Phases* out, Report* r) {
  const double t0 = NowS();
  std::unique_ptr<serve::ServedModel> replica = factory();
  Inputs again;
  if (replica == nullptr || !MakeInputs(seed, replica.get(), &again)) {
    return false;
  }
  for (int p = 0; p < kPanels; ++p) {
    if (!BitwiseEqual(again.expected[p], in.expected[p])) {
      r->Fail("library replicas disagree on a panel");
    }
  }
  serve::Server server(scfg, factory);
  if (!server.Start().ok()) return false;
  std::vector<Conn> conns(std::min(4, BenchThreads()));
  bool ok = true;
  for (Conn& c : conns) {
    c.fd = Connect(scfg.socket_path);
    ok = ok && c.fd >= 0;
  }
  if (ok) {
    out->setup_s.push_back(NowS() - t0);
    RunPhase(conns, in, kHighRate, 0.3, rng, nullptr, r);
    const PhaseResult low =
        RunPhase(conns, in, kLowRate, budget_s * kLowShare, rng, spans, r);
    Pool(RunClosedLoop(conns[0], in, budget_s * kClosedShare, rng, spans, r),
         &out->closed);
    const PhaseResult high =
        RunPhase(conns, in, kHighRate,
                 budget_s * (1 - kLowShare - kClosedShare), rng, spans, r);
    for (const PhaseResult* ph : {&low, &high}) {
      if (ph->backlog_grew) {
        r->Fail("invalid phase: backlog grew from " +
                    FormatDouble(ph->backlog_first) + " to " +
                    FormatDouble(ph->backlog_last),
                0);
      }
    }
    Pool(low, &out->low);
    Pool(high, &out->high);
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  server.Stop();
  return ok;
}

// Median microseconds per call of `fn` over `reps` calls.
template <typename Fn>
double MedianCallUs(int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn(i);
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  return Median(us);
}

}  // namespace

Report RunServeWorkload(const Options& opts, SpanLog* spans) {
  Report r;
  serve::ServerConfig scfg;
  // Relative to the working directory: sun_path is limited to 108 bytes.
  scfg.socket_path =
      opts.out_dir + "/citd-" + std::to_string(::getpid()) + ".sock";
  scfg.workers = 2;
  const serve::ModelFactory factory =
      serve::MakeCitModelFactory(kAssets, ServeModel());
  std::unique_ptr<serve::ServedModel> replica = factory();
  Inputs in;
  if (replica == nullptr || !MakeInputs(opts.seed, replica.get(), &in)) {
    r.attempted = 1;
    r.Fail("serve inputs could not be built");
    return r;
  }
  {
    Digest d;
    for (const auto& w : in.expected) d.Add(w);
    r.Fact("digest.served_weights", d.Hex());
  }
  // The generator sleeps to due times; default 50us timer slack would add
  // up to that much lateness to every send.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::mt19937_64 rng(opts.seed);

  // Untraced rounds first; a traced run gives its second half to rounds
  // with the library's instruments on.
  const int rounds = opts.trace ? kRounds / 2 : kRounds;
  const double round_s = (opts.trace ? opts.seconds / 2 : opts.seconds) /
                         static_cast<double>(rounds);
  Phases plain;
  for (int i = 0; i < rounds; ++i) {
    if (!RunRound(scfg, factory, opts.seed, in, round_s, rng, nullptr,
                  &plain, &r)) {
      r.attempted += 1;
      r.Fail("serve set-up failed (" + scfg.socket_path + ")");
      return r;
    }
  }
  // The end-to-end median is the closed loop's: in both open-loop phases
  // requests often find a server thread idle, and on a virtualized host
  // that wake-up moves their medians by 15-35% between runs.
  const double closed_p50 = Median(plain.closed.latency_us);
  const double goodput = static_cast<double>(plain.high.ok_within_limit) /
                         plain.high.scheduled_s;
  r.Fact("serve.rounds", std::to_string(rounds));
  r.Fact("serve.low.sent", std::to_string(plain.low.sent));
  r.Fact("serve.high.sent", std::to_string(plain.high.sent));
  r.Fact("serve.high.ok_within_limit",
         std::to_string(plain.high.ok_within_limit));
  r.Fact("serve.latency_limit_us", FormatDouble(kLatencyLimitUs));

  if (!opts.trace) {
    r.Add("setup_s", Median(plain.setup_s), "s");
    r.Add("peak_rss_mb", PeakRssMb(), "MB");
    r.Add("throughput_per_s", goodput, "1/s");
    r.Add("p50_us", closed_p50, "us");
    r.Fact("serve.gen.lag_p99_us",
           FormatDouble(Quantile(plain.high.lag_us, 0.99)));
    return r;
  }

  // Side calls on the same inputs.
  r.Add("serve.protocol.parse_us", MedianCallUs(20 * kPanels, [&](int i) {
          const std::string& line = in.lines[i % kPanels];
          const serve::Request req = serve::ParseRequest(
              std::string_view(line).substr(0, line.size() - 1));
          if (req.kind != serve::Request::kDecide) r.Fail("parse failed");
        }),
        "us");
  r.Add("serve.protocol.format_us", MedianCallUs(20 * kPanels, [&](int i) {
          const std::string s =
              serve::FormatDecideResponse(0, in.expected[i % kPanels]);
          if (s.size() < 4) r.Fail("format failed");
        }),
        "us");
  for (int b : {1, 8}) {
    r.Add("core.decide_batch_us.b" + std::to_string(b),
          MedianCallUs(400, [&](int i) {
            std::vector<const market::PricePanel*> ps;
            for (int k = 0; k < b; ++k) {
              ps.push_back(&in.panels[(i * b + k) % kPanels]);
            }
            const auto out = replica->DecideBatch(ps);
            for (int k = 0; k < b; ++k) {
              if (!out[k].ok() ||
                  !BitwiseEqual(out[k].value(),
                                in.expected[(i * b + k) % kPanels])) {
                r.Fail("DecideBatch differs from Decide");
              }
            }
          }),
          "us");
  }

  obs::Registry::Global().ResetAll();
  obs::SetEnabled(true);
  Phases traced;
  for (int i = 0; i < rounds; ++i) {
    if (!RunRound(scfg, factory, opts.seed, in, round_s, rng, spans,
                  &traced, &r)) {
      r.attempted += 1;
      r.Fail("serve set-up failed (" + scfg.socket_path + ")");
      break;
    }
  }
  obs::SetEnabled(false);

  std::vector<double> lag = traced.low.lag_us;
  lag.insert(lag.end(), traced.high.lag_us.begin(), traced.high.lag_us.end());
  std::vector<double> lat = traced.low.latency_us;
  lat.insert(lat.end(), traced.high.latency_us.begin(),
             traced.high.latency_us.end());
  const auto req_us = RegistryHist("serve.request_us");
  const double decides = static_cast<double>(RegistryCount("serve.decides"));
  r.Add("serve.gen.lag_p99_us", Quantile(lag, 0.99), "us");
  // Bucket upper bounds, capped at the largest sample.
  r.Add("serve.server.request_us_p50",
        static_cast<double>(std::min(req_us.ApproxQuantile(0.5), req_us.max)),
        "us");
  r.Add("serve.server.request_us_p99",
        static_cast<double>(std::min(req_us.ApproxQuantile(0.99), req_us.max)),
        "us");
  r.Add("serve.transport_us", Mean(lat) - req_us.Mean(), "us");
  r.Add("serve.batch.size_mean", RegistryHist("serve.batch_size").Mean(),
        "count");
  r.Add("serve.batch.share",
        decides > 0
            ? static_cast<double>(RegistryCount("serve.batched_requests")) /
                  decides
            : 0.0,
        "ratio");
  r.Add("serve.batch_us", RegistryHist("serve.batch_us").Mean(), "us");
  r.Add("serve.low.p50_us", Median(plain.low.latency_us), "us");
  r.Add("serve.low.p99_us", Quantile(plain.low.latency_us, 0.99), "us");
  r.Add("serve.high.p50_us", Median(plain.high.latency_us), "us");
  r.Add("serve.high.p99_us", Quantile(plain.high.latency_us, 0.99), "us");
  r.Add("serve.high.slo_frac",
        plain.high.sent > 0 ? static_cast<double>(plain.high.ok_within_limit) /
                                  static_cast<double>(plain.high.sent)
                            : 0.0,
        "ratio");
  r.Add("bench.trace_overhead_frac",
        (Median(traced.closed.latency_us) - closed_p50) / closed_p50, "ratio");
  ApplyReconciliation({{"server_request_vs_client_latency", req_us.Mean(),
                        Mean(lat), 0.0, 1.0}},
                      &r);
  r.Fact("spans.recorded", std::to_string(spans->size()));
  return r;
}

}  // namespace citbench
