#include "loadgen.h"

#include <atomic>
#include <memory>
#include <thread>

#include "harness.h"

namespace sqp::perfbench {
namespace {

void SleepUntilS(double t) {
  const double now = NowS();
  if (t > now) {
    std::this_thread::sleep_for(std::chrono::duration<double>(t - now));
  }
}

// One connection's view of the load: runs the op and fills `rec`.
// Reconnects after a transport failure.
class Connection {
 public:
  explicit Connection(const ReadLoad& load) : load_(load) {}

  void Run(OpRecord* rec) {
    if (client_ == nullptr) {
      auto c = server::Client::Connect("127.0.0.1", load_.port);
      if (c.ok()) client_ = std::move(*c);
    }
    server::QuerySpec spec;
    spec.mode = load_.mode;
    spec.point = (*load_.queries)[rec->query % load_.queries->size()];
    spec.k = load_.k;
    spec.deadline_s = load_.deadline_s;
    rec->sent_s = NowS();
    if (client_ == nullptr) {
      rec->done_s = NowS();
      rec->fail = Fail::kTransport;
      return;
    }
    const server::StreamOutcome out = client_->Run(spec);
    rec->done_s = NowS();
    if (load_.log != nullptr) {
      load_.log->Record(load_.log->NewId(), load_.parent_span, "client.query",
                        rec->sent_s, rec->done_s);
    }
    rec->chunks = static_cast<uint32_t>(out.chunks);
    if (out.status.ok()) {
      rec->server_s = out.summary.latency_s;
      rec->pages = out.summary.pages_fetched;
      rec->steps = out.summary.steps;
      if (load_.check && !load_.check(rec->query, out)) rec->fail = Fail::kWrong;
    } else if (out.status.code() == common::StatusCode::kResourceExhausted) {
      rec->fail = Fail::kShed;
    } else if (out.status.code() == common::StatusCode::kDeadlineExceeded) {
      rec->fail = Fail::kDeadline;
    } else {
      rec->fail = Fail::kTransport;
      client_.reset();  // the stream state is unknown; start over
    }
  }

 private:
  const ReadLoad& load_;
  std::unique_ptr<server::Client> client_;
};

}  // namespace

double OpRecord::LatencyMs() const {
  if (fail != Fail::kNone) return kInf;
  return (done_s - due_s) * 1e3;
}

std::vector<OpRecord> RunOpenLoop(const ReadLoad& load, size_t n,
                                  double rate) {
  std::vector<OpRecord> ops(n);
  const double t0 = NowS() + 0.02;
  for (size_t i = 0; i < n; ++i) {
    ops[i].query = load.first_query + i;
    ops[i].due_s = t0 + static_cast<double>(i) / rate;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < load.connections; ++c) {
    threads.emplace_back([&] {
      Connection conn(load);
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        SleepUntilS(ops[i].due_s);
        conn.Run(&ops[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ops;
}

ClosedLoopResult RunClosedLoop(const ReadLoad& load, double duration_s) {
  ClosedLoopResult result;
  const double start = NowS();
  const double end = start + duration_s;
  result.start_s = start;
  std::atomic<size_t> next{0};
  std::vector<std::vector<OpRecord>> per_conn(
      static_cast<size_t>(load.connections));
  std::vector<std::thread> threads;
  for (int c = 0; c < load.connections; ++c) {
    threads.emplace_back([&, c] {
      Connection conn(load);
      std::vector<OpRecord>& mine = per_conn[static_cast<size_t>(c)];
      while (NowS() < end) {
        OpRecord rec;
        rec.query = load.first_query + next.fetch_add(1);
        rec.due_s = NowS();
        conn.Run(&rec);
        mine.push_back(rec);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.elapsed_s = NowS() - start;
  for (auto& v : per_conn) {
    result.ops.insert(result.ops.end(), v.begin(), v.end());
  }
  return result;
}

std::vector<OpRecord> RunPacedWrites(size_t n, double rate,
                                     const std::function<bool(size_t)>& write,
                                     double max_s, SpanLog* log,
                                     uint64_t parent_span) {
  std::vector<OpRecord> ops(n);
  const double t0 = NowS() + 0.02;
  for (size_t i = 0; i < n; ++i) {
    if (NowS() > t0 + max_s) {
      ops.resize(i);
      break;
    }
    OpRecord& rec = ops[i];
    rec.query = i;
    rec.due_s = t0 + static_cast<double>(i) / rate;
    SleepUntilS(rec.due_s);
    rec.sent_s = NowS();
    if (!write(i)) rec.fail = Fail::kWrite;
    rec.done_s = NowS();
    if (log != nullptr) {
      log->Record(log->NewId(), parent_span, "client.write", rec.sent_s,
                  rec.done_s);
    }
  }
  return ops;
}

}  // namespace sqp::perfbench
