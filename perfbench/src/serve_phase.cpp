// Serving phase: an in-process serve::Server on loopback under a closed
// loop of min(3, nproc) client connections (each caller waits for its
// reply before sending the next request), with a fixed graph-cache budget.
//
// The phase's steps are short bursts of this loop; samples pool across
// bursts. Three request classes, scheduled per client in seeded shuffled
// blocks so every run sees the same mix:
//   point  short-circuiting `query --reach` on the hot set warmed in set-up;
//   scan   full-scan queries on hot graphs;
//   cold   `query --reach` on a model with unique content: parse, compile,
//          explore, cache insertion and LRU eviction.
// The workload chooses the models:
//   pipeline  the shipped ~4 KB processor models (point and scan) and, for
//             cold, one of them with a unique memory_cycles param: the
//             compile-cache lookup keyed by full source, the per-request
//             file read and the parse/compile of expression-laden source
//             dominate; graphs are about a thousand states;
//   ring      small rings (point), rings of 12-15k states (scan) and fresh
//             rings of 11k-76k states (cold): exploration and query
//             evaluation dominate.
// Every response is compared byte for byte with a cache-off Session oracle
// after the timed window.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "phases.h"
#include "analysis/query.h"
#include "analysis/reachability.h"
#include "cli/session.h"
#include "petri/compiled_net.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "textio/pn_format.h"
#include "trace.h"

namespace perfbench {
namespace {

using pnut::cli::Request;
using pnut::cli::Result;

const char* const kPipelineModels[] = {"pipeline_nocache", "ext_cache_dcache",
                                       "ext_cache_icache", "ext_cache_unified"};
/// The pipeline cold class rewrites this line of a shipped model.
const char* const kMemoryParam = "param memory_cycles 5\n";

/// Ring shapes (places, tokens): C(places + tokens - 1, tokens) states.
struct Shape {
  int places;
  int tokens;
};
const Shape kPointShapes[] = {{10, 4}, {12, 4}, {9, 5}, {14, 3}};      // 560-1365
const Shape kScanShapes[] = {{16, 5}, {12, 6}};                        // 15504, 12376
const Shape kColdShapes[] = {{15, 5}, {10, 7}, {11, 7}, {18, 5}, {14, 6}, {12, 7},
                             {20, 5}, {13, 7}, {22, 5}, {17, 6}, {12, 8}};  // 11.4k-75.6k

/// Requests per scheduling block and how many of each slow class it holds
/// (the rest are point queries), and the graph-cache budget. The mixes are
/// tuned so each class takes a visible share of server busy time; the
/// budgets so cold requests evict within a run.
struct Mix {
  int block;
  int cold;
  int scan;
  std::size_t cache_bytes;
};
constexpr Mix kPipelineMix{600, 20, 75, std::size_t{16} << 20};
constexpr Mix kRingMix{600, 1, 24, std::size_t{64} << 20};

/// Minimum samples per class over all bursts: twice what each reported
/// percentile needs for ten samples beyond it (p99 of point, p90 of cold),
/// since the metrics use the quieter half of the bursts.
constexpr std::size_t kMinPoint = 2000;
constexpr std::size_t kMinCold = 200;
constexpr std::size_t kMinScan = 40;

enum Class : std::size_t { kPoint = 0, kScan = 1, kCold = 2 };
const char* const kClassNames[] = {"point", "scan", "cold"};

struct Line {
  std::string text;
  Request request;
};

Line make_line(const std::string& text) {
  std::string error;
  const auto tokens = pnut::serve::tokenize(text, error);
  if (!tokens || tokens->empty()) throw std::runtime_error("bad request line: " + text);
  Line line{text, {}};
  line.request.command = (*tokens)[0];
  line.request.args.assign(tokens->begin() + 1, tokens->end());
  return line;
}

/// A ring with `tokens` tokens on place `start`; returns the .pn text.
std::string ring_source(const std::string& net_name, const std::string& prefix,
                        const Shape& shape, int start) {
  std::ostringstream text;
  text << "net " << net_name << '\n';
  for (int i = 0; i < shape.places; ++i) {
    text << "place " << prefix << i;
    if (i == start) text << " init " << shape.tokens;
    text << '\n';
  }
  for (int i = 0; i < shape.places; ++i) {
    text << "trans t" << i << " in " << prefix << i << " out " << prefix
         << (i + 1) % shape.places << '\n';
  }
  return text.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string query_line(const std::filesystem::path& model, const std::string& query) {
  return "query --reach \"" + model.string() + "\" \"" + query + "\"";
}

bool same_result(const Result& a, const Result& b) {
  return a.code == b.code && a.out == b.out && a.err == b.err;
}

/// Blocking loopback client speaking the framed line protocol.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("cannot create client socket");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to the server");
    }
    if (read_line() + "\n" != pnut::serve::kGreeting) {
      ::close(fd_);
      throw std::runtime_error("unexpected server greeting");
    }
  }
  ~Client() {
    const std::string quit = ".quit\n";
    [[maybe_unused]] const auto n = ::send(fd_, quit.data(), quit.size(), MSG_NOSIGNAL);
    ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Result roundtrip(const std::string& line) {
    const std::string wire = line + "\n";
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const auto n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    const std::string header = read_line();
    Result result;
    std::size_t out_len = 0;
    std::size_t err_len = 0;
    if (std::sscanf(header.c_str(), "= %d %zu %zu", &result.code, &out_len, &err_len) != 3) {
      throw std::runtime_error("malformed response header: " + header);
    }
    result.out = read_bytes(out_len);
    result.err = read_bytes(err_len);
    return result;
  }

 private:
  void fill() {
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    char chunk[16384];
    const auto n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("connection closed by the server");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  std::string read_line() {
    while (true) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        std::string line = buf_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        return line;
      }
      fill();
    }
  }
  std::string read_bytes(std::size_t n) {
    while (buf_.size() - pos_ < n) fill();
    std::string bytes = buf_.substr(pos_, n);
    pos_ += n;
    return bytes;
  }

  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// One client connection's request stream. The schedule state persists
/// across bursts, so the bursts of a run continue one seeded stream.
struct ClientState {
  explicit ClientState(std::uint64_t seed) : rng(seed) {}
  Rng rng;
  std::vector<Class> block;
  std::vector<std::size_t> cold_order;
  std::size_t cold_index = 0;
  std::size_t cold_memory = 0;  ///< pipeline: next unique memory_cycles value
  std::uint64_t request_id = 0;
  std::array<std::vector<double>, 3> latency_s;
  /// First response per hot line index (point lines, then scan lines);
  /// every later response to that line must equal it byte for byte.
  std::map<std::size_t, Result> first_hot;
  std::vector<std::pair<Line, Result>> cold;
};

unsigned client_count() {
  return std::max(1u, std::min(3u, std::thread::hardware_concurrency()));
}

constexpr double kBurstSeconds = 0.25;

/// One recorded burst: its length and the round trips completed in it.
struct Burst {
  double seconds = 0;
  std::array<std::vector<double>, 3> latency_s;
};

class ServePhase final : public Phase {
 public:
  ~ServePhase() override {
    if (server_) server_->stop();
  }
  double setup(const PhaseContext& ctx) override;
  void step(const PhaseContext& ctx, bool record) override;
  [[nodiscard]] bool enough() const override {
    return done_[kPoint] >= kMinPoint && done_[kScan] >= kMinScan && done_[kCold] >= kMinCold;
  }
  void finish(const PhaseContext& ctx) override;

 private:
  void client_burst(const PhaseContext& ctx, ClientState& client, std::size_t c, bool record,
                    Clock::time_point until);
  /// A cold request: a freshly written model no earlier request has used.
  Line cold_line(const PhaseContext& ctx, ClientState& cs, std::size_t c);
  /// Round trip then in-process execute of the same line, by each client
  /// under the loop's concurrency: execute time and the difference.
  void overhead_probe(const PhaseContext& ctx, std::array<std::vector<double>, 2>& exec_s,
                      std::array<std::vector<double>, 2>& overhead_s);

  Mix mix_{};
  std::filesystem::path dir_;
  std::vector<std::string> pipeline_sources_;
  std::vector<Line> point_;
  std::vector<Line> scan_;
  /// A scan model's source, its full-scan query and a short-circuit query
  /// on it, for timing eval_query directly on an identical graph.
  std::string scan_source_;
  std::string scan_query_;
  std::string scan_point_query_;
  // The server (and its client threads) must go before the session.
  std::unique_ptr<pnut::cli::Session> session_;
  std::unique_ptr<pnut::serve::Server> server_;
  pnut::cli::SessionStats before_;
  std::vector<ClientState> clients_;
  std::array<std::size_t, 3> done_{};  ///< recorded samples per class
  std::vector<Burst> bursts_;
};

double ServePhase::setup(const PhaseContext& ctx) {
  if (server_) server_->stop();
  server_.reset();
  session_.reset();
  point_.clear();
  scan_.clear();
  pipeline_sources_.clear();
  mix_ = ctx.workload == Workload::kPipeline ? kPipelineMix : kRingMix;
  dir_ = ctx.work / "serve";
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  Rng rng(mix(ctx.seed, 300));

  const auto add_scan = [&](const std::filesystem::path& path, const std::string& source,
                            const std::string& scan_query, const std::string& point_query) {
    scan_source_ = source;
    scan_query_ = scan_query;
    scan_point_query_ = point_query;
    scan_.push_back(make_line(query_line(path, scan_query)));
  };
  if (ctx.workload == Workload::kPipeline) {
    // Hot set: the shipped models, two point queries each; full scans of
    // a place invariant on the two cache models with the largest graphs.
    for (const char* name : kPipelineModels) {
      const auto path = dir_ / (std::string(name) + ".pn");
      pipeline_sources_.push_back(
          read_file(ctx.root / "examples" / "models" / (std::string(name) + ".pn")));
      write_file(path, pipeline_sources_.back());
      point_.push_back(make_line(query_line(path, "exists s in S [ Bus_free(s) = 1 ]")));
      point_.push_back(make_line(query_line(path, "exists s in S [ Decoder_ready(s) = 0 ]")));
    }
    for (const std::size_t i : {std::size_t{1}, std::size_t{3}}) {
      add_scan(dir_ / (std::string(kPipelineModels[i]) + ".pn"), pipeline_sources_[i],
               "forall s in S [ Bus_free(s) + Bus_busy(s) = 1 ]",
               "exists s in S [ Bus_busy(s) = 1 ]");
    }
  } else {
    // Hot set: seeded small rings (point) and 12-15k-state rings (scan).
    for (std::size_t i = 0; i < std::size(kPointShapes); ++i) {
      const Shape& shape = kPointShapes[i];
      const std::string prefix = name_prefix("h", rng.below(100000));
      const int start = static_cast<int>(rng.below(static_cast<std::uint64_t>(shape.places)));
      const auto path = dir_ / ("hot" + std::to_string(i) + ".pn");
      write_file(path, ring_source("hot_ring", prefix, shape, start));
      point_.push_back(make_line(
          query_line(path, "exists s in S [ " + prefix + std::to_string(start) +
                               "(s) = " + std::to_string(shape.tokens) + " ]")));
    }
    for (std::size_t i = 0; i < std::size(kScanShapes); ++i) {
      const Shape& shape = kScanShapes[i];
      const std::string prefix = name_prefix("w", rng.below(100000));
      const int start = static_cast<int>(rng.below(static_cast<std::uint64_t>(shape.places)));
      const auto path = dir_ / ("scan" + std::to_string(i) + ".pn");
      const std::string source = ring_source("scan_ring", prefix, shape, start);
      write_file(path, source);
      const std::string place = prefix + std::to_string(start);
      const std::string tokens = std::to_string(shape.tokens);
      add_scan(path, source, "forall s in S [ " + place + "(s) <= " + tokens + " ]",
               "exists s in S [ " + place + "(s) = " + tokens + " ]");
    }
  }

  pnut::cli::SessionOptions options;
  options.cache = true;
  options.graph_cache_budget_bytes = mix_.cache_bytes;
  session_ = std::make_unique<pnut::cli::Session>(options);
  server_ = std::make_unique<pnut::serve::Server>(*session_, 0, 16);
  server_->start();

  // Warm the hot set: the timed part of set-up. Session::execute builds at
  // one thread here, so it starts no threads under the pin.
  double warm_s = 0;
  {
    const CpuRotation pin;
    const auto t0 = Clock::now();
    for (const std::vector<Line>* lines : {&point_, &scan_}) {
      for (const Line& line : *lines) {
        Result r;
        {
          trace::Span span("cli.Session.execute");
          r = session_->execute(line.request);
        }
        if (r.code != 0) {
          ctx.report->attempt("serve.warm");
          ctx.report->fail("serve.warm", line.text + ": code " + std::to_string(r.code));
        }
      }
    }
    warm_s = seconds_since(t0);
  }
  before_ = session_->stats();
  clients_.clear();
  for (unsigned c = 0; c < client_count(); ++c) clients_.emplace_back(mix(ctx.seed, 400 + c));
  return warm_s;
}

Line ServePhase::cold_line(const PhaseContext& ctx, ClientState& cs, std::size_t c) {
  const std::string id = std::to_string(c) + "x" + std::to_string(cs.cold_index++);
  const auto path = dir_ / ("cold_" + id + ".pn");
  if (ctx.workload == Workload::kPipeline) {
    // A shipped model with a memory latency no other request has used:
    // same graph shape, new source, so both caches miss.
    const std::size_t model = cs.rng.below(pipeline_sources_.size());
    std::string source = pipeline_sources_[model];
    const std::size_t at = source.find(kMemoryParam);
    if (at == std::string::npos) throw std::runtime_error("memory_cycles param not found");
    const std::size_t cycles = 6 + c + cs.cold_memory++ * client_count();
    source.replace(at, std::string(kMemoryParam).size(),
                   "param memory_cycles " + std::to_string(cycles) + "\n");
    write_file(path, source);
    return make_line(query_line(path, "exists s in S [ Bus_free(s) = 1 ]"));
  }
  // Ring shapes come from shuffled full passes over the list, so every run
  // covers the same size distribution.
  if (cs.cold_order.empty()) {
    for (std::size_t i = 0; i < std::size(kColdShapes); ++i) cs.cold_order.push_back(i);
    for (std::size_t i = cs.cold_order.size(); i > 1; --i) {
      std::swap(cs.cold_order[i - 1], cs.cold_order[cs.rng.below(i)]);
    }
  }
  const Shape& shape = kColdShapes[cs.cold_order.back()];
  cs.cold_order.pop_back();
  const std::string prefix = "c" + id + "_";
  const int start = static_cast<int>(cs.rng.below(static_cast<std::uint64_t>(shape.places)));
  write_file(path, ring_source("cold_" + std::to_string(ctx.seed), prefix, shape, start));
  return make_line(query_line(path, "exists s in S [ " + prefix + std::to_string(start) +
                                        "(s) = " + std::to_string(shape.tokens) + " ]"));
}

void ServePhase::client_burst(const PhaseContext& ctx, ClientState& cs, std::size_t c,
                              bool record, Clock::time_point until) {
  Report& report = *ctx.report;
  try {
    Client client(server_->port());
    while (Clock::now() < until) {
      if (cs.block.empty()) {
        cs.block.assign(static_cast<std::size_t>(mix_.block - mix_.cold - mix_.scan), kPoint);
        cs.block.insert(cs.block.end(), static_cast<std::size_t>(mix_.scan), kScan);
        cs.block.insert(cs.block.end(), static_cast<std::size_t>(mix_.cold), kCold);
        for (std::size_t i = cs.block.size(); i > 1; --i) {
          std::swap(cs.block[i - 1], cs.block[cs.rng.below(i)]);
        }
      }
      const Class cls = cs.block.back();
      cs.block.pop_back();
      Line cold;
      const Line* line = nullptr;
      std::size_t hot_index = 0;
      if (cls == kPoint) {
        hot_index = cs.rng.below(point_.size());
        line = &point_[hot_index];
      } else if (cls == kScan) {
        const std::size_t i = cs.rng.below(scan_.size());
        hot_index = point_.size() + i;
        line = &scan_[i];
      } else {
        cold = cold_line(ctx, cs, c);
        line = &cold;
      }
      const std::string op = std::string("serve.") + kClassNames[cls];
      report.attempt(op);
      Result result;
      const auto t0 = Clock::now();
      {
        trace::Span span("serve.request", (static_cast<std::uint64_t>(c + 1) << 32) +
                                              ++cs.request_id);
        result = client.roundtrip(line->text);
      }
      const double latency = seconds_since(t0);
      if (result.code != 0) {
        report.fail(op, line->text + ": code " + std::to_string(result.code) + " " +
                            result.err.substr(0, 200));
        continue;
      }
      if (cls == kCold) {
        cs.cold.emplace_back(cold, std::move(result));
      } else {
        const auto [it, inserted] = cs.first_hot.try_emplace(hot_index, result);
        if (!inserted && !same_result(it->second, result)) {
          report.fail(op, line->text + ": response changed between requests");
          continue;
        }
      }
      if (record) cs.latency_s[cls].push_back(latency);
    }
  } catch (const std::exception& e) {
    report.attempt("serve.connection");
    report.fail("serve.connection", e.what());
  }
}

void ServePhase::step(const PhaseContext& ctx, bool record) {
  const auto start = Clock::now();
  const auto until = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kBurstSeconds));
  std::vector<std::array<std::size_t, 3>> before(clients_.size());
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    for (std::size_t k = 0; k < 3; ++k) before[c][k] = clients_[c].latency_s[k].size();
  }
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    threads.emplace_back([&, c] { client_burst(ctx, clients_[c], c, record, until); });
  }
  for (std::thread& t : threads) t.join();
  if (!record) return;
  Burst burst;
  burst.seconds = seconds_since(start);
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    for (std::size_t k = 0; k < 3; ++k) {
      const std::vector<double>& all = clients_[c].latency_s[k];
      burst.latency_s[k].insert(burst.latency_s[k].end(),
                                all.begin() + static_cast<std::ptrdiff_t>(before[c][k]),
                                all.end());
      done_[k] += all.size() - before[c][k];
    }
  }
  bursts_.push_back(std::move(burst));
}

void ServePhase::overhead_probe(const PhaseContext& ctx,
                                std::array<std::vector<double>, 2>& exec_s,
                                std::array<std::vector<double>, 2>& overhead_s) {
  // Per client: enough pairs that the median difference stays positive
  // under a noisy host (a scan executes for 0.1-1.5 ms; its overhead is
  // tens to hundreds of microseconds).
  constexpr std::size_t kPairs[2] = {1000, 100};  // point, scan
  std::vector<std::array<std::vector<double>, 2>> exec(clients_.size());
  std::vector<std::array<std::vector<double>, 2>> diff(clients_.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client(server_->port());
        for (const std::size_t k : {kPoint, kScan}) {
          const std::vector<Line>& lines = k == kPoint ? point_ : scan_;
          for (std::size_t i = 0; i < kPairs[k]; ++i) {
            const Line& line = lines[(i + c) % lines.size()];
            auto t0 = Clock::now();
            (void)client.roundtrip(line.text);
            const double roundtrip_s = seconds_since(t0);
            t0 = Clock::now();
            {
              trace::Span span("cli.Session.execute");
              (void)session_->execute(line.request);
            }
            const double execute_s = seconds_since(t0);
            exec[c][k].push_back(execute_s);
            diff[c][k].push_back(roundtrip_s - execute_s);
          }
        }
      } catch (const std::exception& e) {
        ctx.report->attempt("serve.connection");
        ctx.report->fail("serve.connection", e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    for (std::size_t k = 0; k < 2; ++k) {
      exec_s[k].insert(exec_s[k].end(), exec[c][k].begin(), exec[c][k].end());
      overhead_s[k].insert(overhead_s[k].end(), diff[c][k].begin(), diff[c][k].end());
    }
  }
}

void ServePhase::finish(const PhaseContext& ctx) {
  Report& report = *ctx.report;
  const pnut::cli::SessionStats after = session_->stats();
  const std::size_t clients = clients_.size();

  // --- checks against a cache-off oracle, outside the timed loop ------------
  std::vector<Line> hot_lines = point_;
  hot_lines.insert(hot_lines.end(), scan_.begin(), scan_.end());
  std::vector<Result> hot_oracle;
  for (const Line& line : hot_lines) {
    pnut::cli::Session oracle;
    hot_oracle.push_back(oracle.execute(line.request));
  }
  for (const ClientState& cs : clients_) {
    for (const auto& [index, result] : cs.first_hot) {
      report.attempt("serve.check");
      if (!same_result(result, hot_oracle[index])) {
        report.fail("serve.check", hot_lines[index].text + ": differs from the oracle");
      }
    }
  }
  // Cold requests: the oracle runs each one again on a cache-off Session,
  // which is also the in-process execute time of a cold request.
  std::vector<std::vector<double>> cold_exec(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      pnut::cli::Session oracle;
      for (const auto& [line, result] : clients_[c].cold) {
        report.attempt("serve.check");
        Result want;
        const auto t0 = Clock::now();
        {
          trace::Span span("cli.Session.execute");
          want = oracle.execute(line.request);
        }
        cold_exec[c].push_back(seconds_since(t0));
        if (!same_result(result, want)) {
          report.fail("serve.check", line.text + ": differs from the oracle");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // --- per-layer probes on the warm session --------------------------------
  std::array<std::vector<double>, 2> hot_exec_s;
  std::array<std::vector<double>, 2> overhead_s;
  overhead_probe(ctx, hot_exec_s, overhead_s);
  std::vector<double> cold_exec_s;
  for (const auto& v : cold_exec) cold_exec_s.insert(cold_exec_s.end(), v.begin(), v.end());

  std::vector<double> point_eval_s;
  std::vector<double> scan_eval_s;
  {
    const pnut::textio::NetDocument doc = pnut::textio::parse_net(scan_source_);
    const pnut::analysis::ReachabilityGraph graph(pnut::CompiledNet::compile(doc.net));
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      {
        trace::Span span("analysis.eval_query");
        (void)pnut::analysis::eval_query(graph, scan_point_query_);
      }
      point_eval_s.push_back(seconds_since(t0));
    }
    for (int i = 0; i < 10; ++i) {
      const auto t0 = Clock::now();
      {
        trace::Span span("analysis.eval_query");
        (void)pnut::analysis::eval_query(graph, scan_query_);
      }
      scan_eval_s.push_back(seconds_since(t0));
    }
  }

  // Protocol costs, batched for clock resolution.
  constexpr int kBatch = 100;
  std::vector<double> tokenize_s;
  std::vector<double> frame_s;
  const Result& frame = hot_oracle.front();
  for (int i = 0; i < 50; ++i) {
    auto t0 = Clock::now();
    {
      trace::Span span("serve.tokenize");
      for (int k = 0; k < kBatch; ++k) {
        std::string error;
        (void)pnut::serve::tokenize(point_[k % point_.size()].text, error);
      }
    }
    tokenize_s.push_back(seconds_since(t0) / kBatch);
    std::ostringstream sink;
    t0 = Clock::now();
    {
      trace::Span span("serve.write_response");
      for (int k = 0; k < kBatch; ++k) pnut::serve::write_response(sink, frame);
    }
    frame_s.push_back(seconds_since(t0) / kBatch);
  }

  server_->stop();
  std::filesystem::remove_all(dir_);

  // --- metrics -------------------------------------------------------------
  // The host shares its vCPUs with other tenants, and a burst that lands in
  // a slow stretch is slow in every class. The serving metrics pool the
  // quieter half of the bursts, ranked by their median point round trip
  // (every burst holds thousands of point requests), the serving
  // counterpart of the fastest decile used for single-threaded work.
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t b = 0; b < bursts_.size(); ++b) {
    ranked.emplace_back(median(bursts_[b].latency_s[kPoint]), b);
  }
  std::sort(ranked.begin(), ranked.end());
  std::array<std::vector<double>, 3> latency;
  std::size_t completed = 0;
  double window_s = 0;
  for (std::size_t r = 0; r < (ranked.size() + 1) / 2; ++r) {
    const Burst& burst = bursts_[ranked[r].second];
    window_s += burst.seconds;
    for (std::size_t k = 0; k < 3; ++k) {
      latency[k].insert(latency[k].end(), burst.latency_s[k].begin(), burst.latency_s[k].end());
      completed += burst.latency_s[k].size();
    }
  }
  report.end_to_end["serve_qps"] = {static_cast<double>(completed) / window_s, "1/s"};
  report.end_to_end["serve_point_p50_us"] = {median(latency[kPoint]) * 1e6, "us"};
  // Kept as layer figures only: on the tuning host neither repeated within
  // a tenth from run to run (see perfbench/README.md).
  report.per_layer["serve.point_p99_us"] = {percentile(latency[kPoint], 0.99) * 1e6, "us"};
  report.per_layer["serve.scan_p50_ms"] = {median(latency[kScan]) * 1e3, "ms"};
  report.end_to_end["serve_cold_p50_ms"] = {median(latency[kCold]) * 1e3, "ms"};
  report.end_to_end["serve_cold_p90_ms"] = {percentile(latency[kCold], 0.90) * 1e3, "ms"};
  report.samples["serve_qps"] = completed;
  report.samples["serve_point_p50_us"] = latency[kPoint].size();
  report.samples["serve.point_p99_us"] = latency[kPoint].size();
  report.samples["serve.scan_p50_ms"] = latency[kScan].size();
  report.samples["serve_cold_p50_ms"] = latency[kCold].size();
  report.samples["serve_cold_p90_ms"] = latency[kCold].size();

  double busy_total = 0;
  std::array<double, 3> busy{};
  for (const Burst& burst : bursts_) {
    for (std::size_t k = 0; k < 3; ++k) {
      for (const double v : burst.latency_s[k]) busy[k] += v;
    }
  }
  for (const double b : busy) busy_total += b;
  for (std::size_t k = 0; k < 3; ++k) {
    report.per_layer[std::string("serve.busy_share.") + kClassNames[k]] = {
        busy[k] / busy_total, "ratio"};
  }
  // Hot classes: execute time and protocol-plus-socket overhead from the
  // paired probe. Cold: execute time of the cache-off oracle. A cold
  // request's overhead (tens of microseconds on a 10-60 ms request) is
  // below the noise of any difference, so it is not reported.
  for (const std::size_t k : {kPoint, kScan}) {
    const std::string name = kClassNames[k];
    report.per_layer["cli.execute_us." + name] = {median(hot_exec_s[k]) * 1e6, "us"};
    const double overhead_us = median(overhead_s[k]) * 1e6;
    report.per_layer["serve.overhead_us." + name] = {overhead_us, "us"};
    report.samples["serve.overhead_us." + name] = overhead_s[k].size();
    if (!(overhead_us > 0)) {
      report.attempt("serve.probe");
      report.fail("serve.probe", name + ": round trip not slower than execute (" +
                                     std::to_string(overhead_us) + " us)");
    }
  }
  report.per_layer["cli.execute_us.cold"] = {median(cold_exec_s) * 1e6, "us"};
  const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) / static_cast<double>(hits + misses);
  };
  report.per_layer["cli.graph_hit_ratio"] = {
      ratio(after.graph_hits - before_.graph_hits, after.graph_misses - before_.graph_misses),
      "ratio"};
  report.per_layer["cli.compile_hit_ratio"] = {
      ratio(after.compile_hits - before_.compile_hits,
            after.compile_misses - before_.compile_misses),
      "ratio"};
  report.per_layer["cli.graph_evictions"] = {
      static_cast<double>(after.graph_evictions - before_.graph_evictions), "count"};
  report.per_layer["analysis.query.eval_us.point"] = {median(point_eval_s) * 1e6, "us"};
  report.per_layer["analysis.query.eval_us.scan"] = {median(scan_eval_s) * 1e6, "us"};
  report.per_layer["serve.tokenize_us"] = {median(tokenize_s) * 1e6, "us"};
  report.per_layer["serve.frame_us"] = {median(frame_s) * 1e6, "us"};
}

}  // namespace

std::unique_ptr<Phase> make_serve_phase() { return std::make_unique<ServePhase>(); }

}  // namespace perfbench
