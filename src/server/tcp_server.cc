#include "server/tcp_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/exposition.h"
#include "server/net.h"

namespace sqp::server {
namespace {

// True while `head` is (a prefix of) the 4-byte pattern `pat`.
bool PrefixMatches(const std::string& head, const char* pat) {
  return std::memcmp(head.data(), pat,
                     std::min<size_t>(head.size(), 4)) == 0;
}

// Reads (consuming) up to 4 preamble bytes to sniff the protocol,
// stopping early once the prefix can no longer be the binary magic or
// an HTTP method — a short text line gets answered instead of waited
// on. Consuming matters: a MSG_PEEK sniffer cannot block for a 4th byte
// (the unread prefix keeps POLLIN raised), so a peer that sends 1-3
// bytes and half-closes would busy-spin it forever.
std::string ReadPreamble(int fd) {
  std::string head;
  char buf[4];
  while (head.size() < 4) {
    const ssize_t n = ::recv(fd, buf, 4 - head.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF / error: route whatever arrived
    head.append(buf, static_cast<size_t>(n));
    if (!PrefixMatches(head, kMagic) && !PrefixMatches(head, "GET ") &&
        !PrefixMatches(head, "HEAD")) {
      break;
    }
  }
  return head;
}

DoneSummary SummaryOf(const exec::QueryOutcome& out, uint64_t results) {
  DoneSummary s;
  s.status_code = static_cast<uint8_t>(out.status.code());
  s.message = out.status.message();
  s.results = results;
  s.pages_fetched = out.pages_fetched;
  s.steps = out.steps;
  s.deadline_exceeded = out.deadline_exceeded ? 1 : 0;
  s.latency_s = out.latency_s;
  return s;
}

core::AlgorithmKind ParseAlgoName(const std::string& name) {
  if (name == "bbss") return core::AlgorithmKind::kBbss;
  if (name == "fpss") return core::AlgorithmKind::kFpss;
  if (name == "woptss") return core::AlgorithmKind::kWoptss;
  return core::AlgorithmKind::kCrss;
}

}  // namespace

common::Result<std::unique_ptr<TcpServer>> TcpServer::Start(
    QueryService* service, const TcpServerOptions& options) {
  if (options.max_connections < 1) {
    return common::Status::InvalidArgument("max_connections must be >= 1");
  }
  auto listened = ListenTcp(options.port, options.backlog);
  if (!listened.ok()) return listened.status();
  auto port = BoundPort(*listened);
  if (!port.ok()) {
    ::close(*listened);
    return port.status();
  }
  std::unique_ptr<TcpServer> server(
      new TcpServer(service, options, *listened, *port));
  return server;
}

TcpServer::TcpServer(QueryService* service, const TcpServerOptions& options,
                     int listen_fd, int port)
    : service_(service),
      options_(options),
      listen_fd_(listen_fd),
      port_(port) {
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

TcpServer::~TcpServer() { Stop(); }

void TcpServer::Stop() {
  if (stopping_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  // Closing the listener unblocks accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> reap;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Unblock handlers parked in recv()/send() and stop the queries they
    // are streaming; each handler then retires itself on the way out.
    for (auto& [id, conn] : conns_) {
      ::shutdown(conn.fd, SHUT_RDWR);
      if (conn.query != nullptr) conn.query->Cancel();
    }
    conns_cv_.wait(lock, [&] { return conns_.empty(); });
    reap.swap(done_);
  }
  for (std::thread& t : reap) t.join();
}

void TcpServer::AcceptLoop() {
  for (;;) {
    ReapFinished();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (Stop) or fatal
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    // Without this, Nagle holds each small chunk frame for the peer's
    // delayed ACK (~40 ms) — streaming latency must be the query's, not
    // the socket heuristics'.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mu_);
    if (conns_.size() >= options_.max_connections) {
      // At the cap the connection is shed outright: a clean close now
      // beats an unbounded thread pile-up.
      ::close(fd);
      continue;
    }
    const uint64_t id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.fd = fd;
    // The new thread's first lock of mu_ waits on this scope, so the
    // thread handle is in place before the handler can retire.
    conn.thread = std::thread([this, fd, id] {
      HandleConnection(fd, id);
      RetireConnection(fd, id);
    });
  }
}

void TcpServer::ReapFinished() {
  std::vector<std::thread> reap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reap.swap(done_);
  }
  for (std::thread& t : reap) t.join();
}

void TcpServer::RetireConnection(int fd, uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  // Close under mu_ so Stop() never shutdown()s a recycled descriptor.
  ::close(fd);
  auto it = conns_.find(id);
  done_.push_back(std::move(it->second.thread));
  conns_.erase(it);
  conns_cv_.notify_all();
}

void TcpServer::SetActiveQuery(uint64_t id,
                               std::shared_ptr<StreamingQuery> q) {
  std::lock_guard<std::mutex> lock(mu_);
  if (q != nullptr && stopping_.load(std::memory_order_relaxed)) {
    q->Cancel();  // Stop() already swept conns_; don't outlive it
  }
  auto it = conns_.find(id);
  if (it != conns_.end()) it->second.query = std::move(q);
}

void TcpServer::HandleConnection(int fd, uint64_t id) {
  const std::string head = ReadPreamble(fd);
  if (head.empty()) return;
  if (head.size() == 4 && std::memcmp(head.data(), kMagic, 4) == 0) {
    HandleBinary(fd, id);
    return;
  }
  if (PrefixMatches(head, "GET ") || PrefixMatches(head, "HEAD")) {
    HandleHttp(fd, head);
    return;
  }
  HandleText(fd, id, head);
}

void TcpServer::HandleBinary(int fd, uint64_t id) {
  FrameDecoder decoder;
  char buf[4096];
  while (!stopping_.load(std::memory_order_relaxed)) {
    Frame frame;
    while (!decoder.Next(&frame)) {
      if (!decoder.error().ok()) return;
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      decoder.Feed(buf, static_cast<size_t>(n));
    }
    if (frame.type == FrameType::kCancel) continue;  // nothing in flight
    if (frame.type != FrameType::kQuery) return;     // protocol violation
    auto spec = DecodeQuerySpec(frame.payload);
    if (!spec.ok()) {
      const std::string f =
          EncodeFrame(FrameType::kError, EncodeError(spec.status()));
      if (!WriteAll(fd, f.data(), f.size())) return;
      continue;
    }
    auto submitted = service_->Submit(*spec);
    if (!submitted.ok()) {
      // The typed shedding path: kResourceExhausted reaches the client
      // as an error frame; the connection survives for a retry.
      const std::string f =
          EncodeFrame(FrameType::kError, EncodeError(submitted.status()));
      if (!WriteAll(fd, f.data(), f.size())) return;
      continue;
    }
    SetActiveQuery(id, *submitted);
    const bool conn_ok = StreamBinaryQuery(fd, *submitted, &decoder);
    SetActiveQuery(id, nullptr);
    if (!conn_ok) return;
  }
}

bool TcpServer::StreamBinaryQuery(int fd,
                                  const std::shared_ptr<StreamingQuery>& q,
                                  FrameDecoder* decoder) {
  uint64_t results = 0;
  std::vector<core::Neighbor> chunk;
  bool conn_ok = true;
  char buf[4096];
  while (q->NextChunk(&chunk)) {
    // A client cancel may already be queued on the socket; honour it
    // before writing more results.
    while (conn_ok && Readable(fd)) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        decoder->Feed(buf, static_cast<size_t>(n));
        Frame f;
        while (decoder->Next(&f)) {
          if (f.type == FrameType::kCancel) q->Cancel();
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      conn_ok = false;  // peer gone; stop the query, drain the stream
      q->Cancel();
    }
    if (conn_ok) {
      const std::string f = EncodeFrame(FrameType::kChunk, EncodeChunk(chunk));
      if (!WriteAll(fd, f.data(), f.size())) {
        conn_ok = false;
        q->Cancel();
      } else {
        results += chunk.size();
      }
    }
  }
  if (!conn_ok) return false;
  const exec::QueryOutcome& out = q->outcome();
  const std::string f =
      EncodeFrame(FrameType::kDone, EncodeDone(SummaryOf(out, results)));
  return WriteAll(fd, f.data(), f.size());
}

void TcpServer::HandleHttp(int fd, const std::string& initial) {
  // Read up to the end of the request head; only the request line matters.
  std::string req = initial;
  char buf[2048];
  while (req.find("\r\n") == std::string::npos && req.size() < 16384) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    req.append(buf, static_cast<size_t>(n));
  }
  const size_t sp1 = req.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : req.find(' ', sp1 + 1);
  std::string path = "/";
  if (sp2 != std::string::npos) path = req.substr(sp1 + 1, sp2 - sp1 - 1);
  const exec::ParallelQueryEngine* engine = service_->engine();
  const obs::HttpContent content = obs::HandleObservabilityPath(
      path, engine->metrics(), engine->trace(),
      !stopping_.load(std::memory_order_relaxed), options_.max_trace_spans);
  const std::string response = obs::RenderHttpResponse(content);
  WriteAll(fd, response.data(), response.size());
}

void TcpServer::HandleText(int fd, uint64_t id, const std::string& initial) {
  std::string pending = initial;
  char buf[2048];
  while (!stopping_.load(std::memory_order_relaxed)) {
    size_t nl = pending.find('\n');
    while (nl == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      pending.append(buf, static_cast<size_t>(n));
      nl = pending.find('\n');
    }
    std::string line = pending.substr(0, nl);
    pending.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line == "quit") return;

    std::istringstream in(line);
    std::string verb;
    in >> verb;
    QuerySpec spec;
    std::string size_tok;  // k or radius, parsed once the verb is known
    std::vector<geometry::Coord> coords;
    std::string tok;
    bool bad = false;
    while (in >> tok) {
      const size_t eq = tok.find('=');
      if (eq != std::string::npos) {
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        if (key == "deadline_ms") {
          spec.deadline_s = std::atof(val.c_str()) / 1e3;
        } else if (key == "priority") {
          spec.priority = std::atoi(val.c_str());
        } else if (key == "algo") {
          spec.algo = ParseAlgoName(val);
        } else if (key == "mode") {
          if (val == "batch") spec.mode = QueryMode::kKnnBatch;
        } else {
          bad = true;
        }
        continue;
      }
      if (size_tok.empty()) {
        size_tok = tok;
        continue;
      }
      char* end = nullptr;
      const double v = std::strtod(tok.c_str(), &end);
      if (end == tok.c_str() || *end != '\0') {
        bad = true;
        break;
      }
      // A value beyond the coordinate type's range becomes infinity
      // (well-defined, unlike the narrowing cast), which Submit rejects
      // like any other non-finite coordinate.
      constexpr double kCoordMax = std::numeric_limits<geometry::Coord>::max();
      coords.push_back(std::fabs(v) <= kCoordMax
                           ? static_cast<geometry::Coord>(v)
                           : std::numeric_limits<geometry::Coord>::infinity());
    }
    double radius = 0.0;
    if (verb == "range") {
      char* end = nullptr;
      radius = std::strtod(size_tok.c_str(), &end);
      bad |= end == size_tok.c_str() || *end != '\0';
    }
    std::string reply;
    if (bad || size_tok.empty() || coords.empty() ||
        (verb != "knn" && verb != "range")) {
      reply =
          "error invalid_argument usage: knn <k> <coord>... | "
          "range <radius> <coord>... [deadline_ms=] [priority=] [algo=]\n";
      if (!WriteAll(fd, reply.data(), reply.size())) return;
      continue;
    }
    // k is a u32 on the binary wire: a text k must be a plain integer in
    // [1, 2^32 - 1] — no sign, fraction or exponent.
    uint64_t k = 0;
    if (verb == "knn") {
      const char* last = size_tok.data() + size_tok.size();
      const auto [ptr, ec] = std::from_chars(size_tok.data(), last, k);
      if (ec != std::errc() || ptr != last || k < 1 ||
          k > std::numeric_limits<uint32_t>::max()) {
        reply = "error invalid_argument k must be an integer in [1, " +
                std::to_string(std::numeric_limits<uint32_t>::max()) + "]\n";
        if (!WriteAll(fd, reply.data(), reply.size())) return;
        continue;
      }
    }
    if (verb == "knn") {
      if (spec.mode != QueryMode::kKnnBatch) spec.mode = QueryMode::kKnnStream;
      spec.k = static_cast<size_t>(k);
    } else {
      spec.mode = QueryMode::kRange;
      spec.radius = radius;
    }
    spec.point = geometry::Point::FromVector(std::move(coords));

    auto submitted = service_->Submit(spec);
    if (!submitted.ok()) {
      reply = "error " +
              std::string(common::StatusCodeName(submitted.status().code())) +
              " " + submitted.status().message() + "\n";
      if (!WriteAll(fd, reply.data(), reply.size())) return;
      continue;
    }
    const std::shared_ptr<StreamingQuery>& q = *submitted;
    SetActiveQuery(id, q);
    uint64_t results = 0;
    std::vector<core::Neighbor> chunk;
    bool conn_ok = true;
    while (q->NextChunk(&chunk)) {
      if (!conn_ok) continue;  // drain so the worker can finish
      std::string lines;
      for (const core::Neighbor& n : chunk) {
        lines += "r " + std::to_string(n.object) + " " +
                 std::to_string(n.dist_sq) + "\n";
      }
      results += chunk.size();
      if (!WriteAll(fd, lines.data(), lines.size())) {
        conn_ok = false;
        q->Cancel();
      }
    }
    SetActiveQuery(id, nullptr);
    if (!conn_ok) return;
    const exec::QueryOutcome& out = q->outcome();
    if (out.status.ok()) {
      reply = "done " + std::to_string(results) +
              " pages=" + std::to_string(out.pages_fetched) +
              " steps=" + std::to_string(out.steps) + "\n";
    } else {
      reply = "error " +
              std::string(common::StatusCodeName(out.status.code())) + " " +
              out.status.message() + "\n";
    }
    if (!WriteAll(fd, reply.data(), reply.size())) return;
  }
}

}  // namespace sqp::server
