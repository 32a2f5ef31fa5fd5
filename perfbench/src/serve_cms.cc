// serve_cms: a count-min checkpoint restored with OpenServedModel and
// served by an in-process Server over a Unix socket, driven by one
// generator thread through the public protocol, socket and Client calls.
//
// After the checkpoint builds (train_s) and daemon start-ups (setup_s),
// one untimed lockstep pass over the query set is checked against the
// exact counts (est_error_avg). Then rounds of four phases follow:
//   lockstep   Client::Query round trips at batch 512, one fresh
//              connection per segment (query_p50_us);
//   saturated  a closed loop keeping kWindow frames in flight on one
//              connection (query_keys_per_s, cpu_ns_per_key);
//   mixed      the same query loop beside ingest paced at a fixed rate on
//              a second connection (load.mixed_query_keys_per_s,
//              load.ingest_ack_p50_us);
//   burst      ingest alone, kWindow frames in flight
//              (ingest_keys_per_s).
// The traced run then replays the same frames and keys through the layer
// calls the daemon makes privately (protocol decode/encode,
// ServedModel, CountMinSketch, KernelOps) to split the round trip.

#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hashing/hash_functions.h"
#include "inputs.h"
#include "io/sketch_snapshot.h"
#include "measure.h"
#include "oracles.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/served_model.h"
#include "server/server.h"
#include "server/socket_io.h"
#include "sketch/count_min_sketch.h"
#include "sketch/kernels/simd_dispatch.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace server = opthash::server;
namespace kernels = opthash::sketch::kernels;
using opthash::Rng;
using opthash::sketch::CountMinSketch;

/// The count-min's hash seed belongs to the deployed configuration, not
/// to the inputs: --seed draws the streams. With a per-run hash draw the
/// frequency-weighted error would hinge on whether the few heaviest keys
/// happen to collide, and swing by 30x from run to run.
constexpr uint64_t kSketchSeed = 1;
/// Query frames kept in flight by the saturating generator; also the
/// ingest window of the burst phase. Deep enough that a late wake-up of
/// the generator thread does not drain the daemon's queue: with 8 frames
/// the saturated rate followed the host's wake-up latency.
constexpr size_t kWindow = 32;
/// Answers of every kSampleEvery-th frame of the saturated and mixed
/// phases are checked against the exact counts after the phase.
constexpr size_t kSampleEvery = 16;

struct Shape {
  size_t universe = 0;     // Zipf ranks behind the stream keys.
  size_t unseen_pool = 0;  // Extra indices queried but never ingested.
  double zipf_s = 1.05;
  size_t width = 0;
  size_t depth = 4;
  size_t prefix_items = 0;  // Arrivals counted into the checkpoint.
  size_t query_frames = 0;  // Query set = query_frames * kBatch keys.
  double unseen_fraction = 0.1;
  size_t ingest_pool_frames = 0;
  // Paced ingest, keys/s, in the mixed phase. Beside 32 query frames in
  // flight the writer lock admits ingest only between query frames; at
  // 2 M keys/s its backlog grew without bound whenever the host slowed
  // (ack p50 2-9 ms in 4 of 10 runs), at 1 M it keeps its schedule.
  double ingest_rate = 1e6;
  // Daemon start-ups: ~85 ms each on the reference host, two per loop.
  SetupLoops setups{4, 2};
  size_t builds = 3;
  size_t lockstep_round_trips = 0;  // Per fresh-connection segment.
  size_t slice_frames = 0;          // Frames per rate slice.
  size_t warmup_frames = 64;        // Untimed, on each fresh connection.
  size_t replay_frames = 0;         // Traced replay, per layer.
  // The phases run in `rounds` interleaved rounds, so that every metric
  // samples the whole run and not one stretch of it; the counts below
  // are per round.
  size_t rounds = 10;
  size_t lockstep_segments = 0;
  size_t saturated_slices = 0;
  size_t mixed_slices = 0;
  size_t burst_slices = 0;
};

Shape ShapeFor(const RunConfig& config) {
  Shape s;
  if (config.smoke) {
    s.universe = 1 << 16;
    s.unseen_pool = 1 << 12;
    s.width = 1 << 14;
    s.prefix_items = 1 << 18;
    s.query_frames = 64;
    s.ingest_pool_frames = 64;
    s.setups = {2, 1};
    s.builds = 2;
    s.slice_frames = 64;
    s.warmup_frames = 8;
    s.lockstep_round_trips = 100;
    s.replay_frames = 32;
    s.rounds = 2;
  } else {
    // 2^20 x 4 u64 counters = 32 MiB, four times this host's 8 MiB L2.
    s.universe = 1 << 21;
    s.unseen_pool = 1 << 18;
    s.width = 1 << 20;
    s.prefix_items = 8 << 20;
    s.query_frames = 2048;  // 1 Mi query keys.
    s.ingest_pool_frames = 8192;
    s.slice_frames = 2048;
    s.lockstep_round_trips = 1000;
    s.replay_frames = 2048;
  }
  // Nominal times on the reference host (README): a slice of 1 Mi keys
  // takes ~65 ms saturated, ~75 ms beside paced ingest and ~55 ms as
  // ingest; a lockstep segment ~55 ms.
  const double scale = config.smoke ? 1.0 / 16 : 1.0;
  const double rounds = static_cast<double>(s.rounds);
  s.lockstep_segments = SlicesFor(config, 0.15 / rounds, 0.055 * scale, 1);
  s.saturated_slices = SlicesFor(config, 0.30 / rounds, 0.065 * scale, 1);
  s.mixed_slices = SlicesFor(config, 0.30 / rounds, 0.075 * scale, 1);
  s.burst_slices = SlicesFor(config, 0.10 / rounds, 0.055 * scale, 1);
  return s;
}

/// One blocking protocol connection speaking raw frames, so a single
/// generator thread can keep several requests in flight (the protocol
/// answers pipelined frames in order).
class FrameConnection {
 public:
  explicit FrameConnection(int fd) : fd_(fd) {}
  ~FrameConnection() { server::CloseSocket(fd_); }
  FrameConnection(const FrameConnection&) = delete;
  FrameConnection& operator=(const FrameConnection&) = delete;

  int fd() const { return fd_; }
  opthash::Status Send(const std::vector<uint8_t>& frame) {
    return server::WriteAll(fd_, frame);
  }
  opthash::Status Receive(std::vector<uint8_t>& payload) {
    return server::ReadFramePayload(fd_, payload);
  }

 private:
  int fd_;
};

std::unique_ptr<FrameConnection> Connect(const std::string& path,
                                         Report& report) {
  auto fd = server::ConnectUnix(path);
  if (!fd.ok()) {
    report.Fail("connect: " + fd.status().ToString());
    return nullptr;
  }
  return std::make_unique<FrameConnection>(fd.value());
}

std::vector<std::vector<uint8_t>> EncodeFrames(
    server::MessageType type, const std::vector<uint64_t>& keys) {
  std::vector<std::vector<uint8_t>> frames(keys.size() / kBatch);
  for (size_t f = 0; f < frames.size(); ++f) {
    server::EncodeKeyRequest(
        type, Span<const uint64_t>(keys.data() + f * kBatch, kBatch),
        frames[f]);
  }
  return frames;
}

struct Daemon {
  std::unique_ptr<server::Server> server;
  double setup_seconds = 0.0;
};

/// Restricts the calling thread to CPUs [first, last]; threads it starts
/// afterwards inherit the mask. Returns false (and changes nothing) when
/// the host has fewer CPUs.
bool PinCurrentThread(int first, int last) {
  if (last >= static_cast<int>(std::thread::hardware_concurrency())) {
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu <= last; ++cpu) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/// Restore the checkpoint, start the daemon and prove it answers: the
/// program's work before the first timed request.
Daemon StartDaemon(const std::string& checkpoint,
                   const std::string& socket_path, Report& report) {
  Daemon daemon;
  const int64_t start = NowNs();
  auto opened = server::OpenServedModel(checkpoint, /*use_mmap=*/false);
  if (!opened.ok()) {
    report.Fail("OpenServedModel: " + opened.status().ToString());
    return daemon;
  }
  server::ServerConfig config;
  config.socket_path = socket_path;
  config.event_threads = 2;
  config.ingest.num_threads = 1;
  auto started = std::make_unique<server::Server>(
      config, std::move(opened.value().model));
  // The daemon's threads run on CPUs 1-3 and the generator on CPU 0, so
  // the scheduler cannot stack the generator onto the event loop it
  // talks to in one run and not in the next.
  const bool pinned = PinCurrentThread(1, 3);
  const opthash::Status status = started->Start();
  if (pinned) PinCurrentThread(0, 0);
  if (!status.ok()) {
    report.Fail("Server::Start: " + status.ToString());
    return daemon;
  }
  auto client = server::Client::Connect(socket_path);
  if (!client.ok() || !client.value().Ping().ok()) {
    report.Fail("first ping failed");
    return daemon;
  }
  daemon.setup_seconds = static_cast<double>(NowNs() - start) * 1e-9;
  daemon.server = std::move(started);
  return daemon;
}

struct Inputs {
  std::vector<uint32_t> prefix_index;
  std::vector<uint64_t> prefix_keys;
  std::vector<uint32_t> query_index;
  std::vector<uint64_t> query_keys;
  std::vector<uint32_t> ingest_index;
  std::vector<uint64_t> ingest_keys;
};

Inputs MakeInputs(const Shape& s, uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  in.prefix_index = ZipfIndices(s.prefix_items, s.universe, s.zipf_s, rng);
  in.prefix_keys = KeysOf(in.prefix_index);
  const ZipfDraw draw(s.universe, s.zipf_s);
  in.query_index.resize(s.query_frames * kBatch);
  for (uint32_t& index : in.query_index) {
    const double u = static_cast<double>(rng.NextUint64() >> 11) * 0x1.0p-53;
    index = u < s.unseen_fraction
                ? static_cast<uint32_t>(s.universe +
                                        rng.NextBounded(s.unseen_pool))
                : static_cast<uint32_t>(draw(rng) - 1);
  }
  in.query_keys = KeysOf(in.query_index);
  in.ingest_index =
      ZipfIndices(s.ingest_pool_frames * kBatch, s.universe, s.zipf_s, rng);
  in.ingest_keys = KeysOf(in.ingest_index);
  return in;
}

std::vector<uint64_t> ExactOf(const ExactCounts& exact,
                              const std::vector<uint32_t>& indices) {
  std::vector<uint64_t> out(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) out[i] = exact.Count(indices[i]);
  return out;
}

/// What the generator has sent so far, and the exact counts behind it.
struct Generator {
  Generator(const Shape& shape, const Inputs& inputs, std::string socket)
      : s(shape),
        in(inputs),
        socket_path(std::move(socket)),
        exact(shape.universe + shape.unseen_pool),
        query_frames(EncodeFrames(server::MessageType::kQuery,
                                  inputs.query_keys)),
        ingest_frames(EncodeFrames(server::MessageType::kIngest,
                                   inputs.ingest_keys)) {}

  /// Folds the ingest frames sent (and acknowledged) since the last call
  /// into the exact counts, and refreshes the query keys' exact counts.
  void CountIngest() {
    for (; ingest_counted < ingest_sent; ++ingest_counted) {
      const size_t pool = ingest_counted % s.ingest_pool_frames;
      for (size_t k = 0; k < kBatch; ++k) {
        exact.Add(in.ingest_index[pool * kBatch + k]);
      }
    }
    exact_now = ExactOf(exact, in.query_index);
  }
  Span<const uint64_t> ExactOfFrame(size_t frame) const {
    return Span<const uint64_t>(exact_now.data() + frame * kBatch, kBatch);
  }
  size_t NextQueryFrame() {
    const size_t frame = next_query;
    next_query = (next_query + 1) % s.query_frames;
    ++query_requests_sent;
    return frame;
  }
  const std::vector<uint8_t>& NextIngestFrame() {
    items_sent += kBatch;
    return ingest_frames[ingest_sent++ % s.ingest_pool_frames];
  }

  const Shape& s;
  const Inputs& in;
  const std::string socket_path;
  ExactCounts exact;
  std::vector<uint64_t> exact_now;  // Exact counts of the query keys.
  const std::vector<std::vector<uint8_t>> query_frames;
  const std::vector<std::vector<uint8_t>> ingest_frames;
  uint64_t query_requests_sent = 0;
  uint64_t items_sent = 0;
  size_t ingest_sent = 0;
  size_t ingest_counted = 0;
  size_t next_query = 0;
  std::vector<uint8_t> payload;
  std::vector<double> decoded;
};

/// What the phases measured, pooled over the rounds.
struct Samples {
  std::vector<double> segment_p50_us;  // Lockstep, one per connection.
  std::vector<double> lockstep_us;     // Every timed lockstep round trip.
  std::vector<double> saturated_rates;
  double saturated_cpu_s = 0.0;
  double saturated_keys = 0.0;
  std::vector<double> mixed_rates;
  std::vector<double> ingest_ack_us;
  std::vector<double> lateness_us;
  std::vector<double> burst_rates;
};

/// Operations one phase attempted and failed, and its oracle's verdict
/// (the first violation seen), over all rounds.
struct PhaseTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  opthash::Status verdict;

  void Check(opthash::Status status) {
    if (verdict.ok()) verdict = std::move(status);
  }
};

double RatePerSecond(size_t keys, int64_t ns) {
  return static_cast<double>(keys) / (static_cast<double>(ns) * 1e-9);
}

/// Client::Query round trips at batch 512, one fresh connection per
/// segment; the first round trip of a connection is not timed.
void Lockstep(Generator& g, Samples& out, PhaseTally& tally) {
  std::vector<double> answers;
  for (size_t seg = 0; seg < g.s.lockstep_segments; ++seg) {
    auto client = server::Client::Connect(g.socket_path);
    if (!client.ok()) {
      tally.attempted += g.s.lockstep_round_trips + 1;
      tally.failed += g.s.lockstep_round_trips + 1;
      continue;
    }
    std::vector<double> micros;
    for (size_t i = 0; i <= g.s.lockstep_round_trips; ++i) {
      const size_t frame = g.NextQueryFrame();
      const Span<const uint64_t> keys(g.in.query_keys.data() + frame * kBatch,
                                      kBatch);
      ++tally.attempted;
      const int64_t start = NowNs();
      const opthash::Status status = client.value().Query(keys, answers);
      const int64_t end = NowNs();
      if (!status.ok()) {
        ++tally.failed;
        continue;
      }
      if (i > 0) micros.push_back(static_cast<double>(end - start) * 1e-3);
      tally.Check(CheckNeverBelow(answers, g.ExactOfFrame(frame)));
    }
    out.segment_p50_us.push_back(Median(micros));
    out.lockstep_us.insert(out.lockstep_us.end(), micros.begin(), micros.end());
  }
}

/// A closed loop keeping kWindow query frames in flight on one fresh
/// connection. Nothing else runs, so sampled answers must meet the full
/// count-min contract against the current exact counts.
void Saturated(Generator& g, Samples& out, PhaseTally& tally, Report& report) {
  auto conn = Connect(g.socket_path, report);
  if (conn == nullptr) return;
  std::deque<size_t> in_flight;
  auto send_next = [&] {
    const size_t frame = g.NextQueryFrame();
    in_flight.push_back(frame);
    ++tally.attempted;
    if (!conn->Send(g.query_frames[frame]).ok()) ++tally.failed;
  };
  std::vector<double> sampled;
  std::vector<uint64_t> sampled_exact;
  size_t received = 0;
  auto receive = [&]() -> bool {
    const size_t frame = in_flight.front();
    in_flight.pop_front();
    if (!conn->Receive(g.payload).ok() ||
        !server::DecodeEstimatesResponse(g.payload, g.decoded).ok()) {
      report.Fail("saturated phase lost its connection");
      return false;
    }
    if (received++ % kSampleEvery == 0) {
      sampled.insert(sampled.end(), g.decoded.begin(), g.decoded.end());
      const Span<const uint64_t> exact = g.ExactOfFrame(frame);
      sampled_exact.insert(sampled_exact.end(), exact.begin(), exact.end());
    }
    return true;
  };
  for (size_t w = 0; w < kWindow; ++w) send_next();
  for (size_t r = 0; r < g.s.warmup_frames; ++r) {
    if (!receive()) return;
    send_next();
  }
  const double cpu_start = ProcessCpuSeconds();
  for (size_t slice = 0; slice < g.s.saturated_slices; ++slice) {
    const int64_t start = NowNs();
    for (size_t r = 0; r < g.s.slice_frames; ++r) {
      if (!receive()) return;
      send_next();
    }
    out.saturated_rates.push_back(
        RatePerSecond(g.s.slice_frames * kBatch, NowNs() - start));
  }
  out.saturated_cpu_s += ProcessCpuSeconds() - cpu_start;
  out.saturated_keys +=
      static_cast<double>(g.s.saturated_slices * g.s.slice_frames * kBatch);
  while (!in_flight.empty()) {
    if (!receive()) return;
  }
  tally.Check(CheckCountMinAnswers(sampled, sampled_exact, g.exact.total(),
                                   g.s.width));
}

/// The saturated query loop beside ingest paced at s.ingest_rate on a
/// second connection (open loop: each frame is timed from when it was
/// due). Counts only grow, so every sampled answer must be at least the
/// exact count from before the phase.
void Mixed(Generator& g, Samples& out, PhaseTally& tally, Report& report) {
  auto queries = Connect(g.socket_path, report);
  auto ingest = Connect(g.socket_path, report);
  if (queries == nullptr || ingest == nullptr) return;
  // The default 50 us timer slack of this thread would delay every paced
  // send; 1 us keeps the schedule (affects this thread only).
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  std::vector<double> sampled;
  std::vector<uint64_t> sampled_exact;
  std::deque<size_t> in_flight;
  std::deque<int64_t> ingest_due;
  size_t received = 0;
  auto send_query = [&] {
    const size_t frame = g.NextQueryFrame();
    in_flight.push_back(frame);
    ++tally.attempted;
    if (!queries->Send(g.query_frames[frame]).ok()) ++tally.failed;
  };
  const auto period_ns =
      static_cast<int64_t>(1e9 * kBatch / g.s.ingest_rate);
  const size_t timed_from = g.s.warmup_frames;
  const size_t total = timed_from + g.s.mixed_slices * g.s.slice_frames;
  for (size_t w = 0; w < kWindow; ++w) send_query();
  int64_t next_due = NowNs();
  int64_t slice_start = 0;
  while (received < total) {
    const int64_t now = NowNs();
    while (now >= next_due) {
      out.lateness_us.push_back(static_cast<double>(now - next_due) * 1e-3);
      ingest_due.push_back(next_due);
      ++tally.attempted;
      if (!ingest->Send(g.NextIngestFrame()).ok()) ++tally.failed;
      next_due += period_ns;
    }
    pollfd fds[2] = {{queries->fd(), POLLIN, 0}, {ingest->fd(), POLLIN, 0}};
    const timespec timeout{0, std::max<int64_t>(0, next_due - now)};
    if (ppoll(fds, 2, &timeout, nullptr) < 0) continue;
    if ((fds[1].revents & POLLIN) != 0) {
      if (!ingest->Receive(g.payload).ok() ||
          !server::DecodeAckResponse(g.payload).ok()) {
        report.Fail("mixed phase lost its ingest connection");
        return;
      }
      out.ingest_ack_us.push_back(
          static_cast<double>(NowNs() - ingest_due.front()) * 1e-3);
      ingest_due.pop_front();
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const size_t frame = in_flight.front();
      in_flight.pop_front();
      if (!queries->Receive(g.payload).ok() ||
          !server::DecodeEstimatesResponse(g.payload, g.decoded).ok()) {
        report.Fail("mixed phase lost its query connection");
        return;
      }
      if (received % kSampleEvery == 0) {
        sampled.insert(sampled.end(), g.decoded.begin(), g.decoded.end());
        const Span<const uint64_t> exact = g.ExactOfFrame(frame);
        sampled_exact.insert(sampled_exact.end(), exact.begin(), exact.end());
      }
      ++received;
      if (received == timed_from) slice_start = NowNs();
      if (received > timed_from &&
          (received - timed_from) % g.s.slice_frames == 0) {
        const int64_t end = NowNs();
        out.mixed_rates.push_back(
            RatePerSecond(g.s.slice_frames * kBatch, end - slice_start));
        slice_start = end;
      }
      if (received + in_flight.size() < total) send_query();
    }
  }
  while (!ingest_due.empty()) {
    if (!ingest->Receive(g.payload).ok()) {
      ++tally.failed;
      break;
    }
    out.ingest_ack_us.push_back(
        static_cast<double>(NowNs() - ingest_due.front()) * 1e-3);
    ingest_due.pop_front();
  }
  tally.Check(CheckNeverBelow(sampled, sampled_exact));
}

/// Unpaced ingest, kWindow frames in flight on one fresh connection.
void Burst(Generator& g, Samples& out, PhaseTally& tally, Report& report) {
  auto conn = Connect(g.socket_path, report);
  if (conn == nullptr) return;
  auto send_next = [&] {
    ++tally.attempted;
    if (!conn->Send(g.NextIngestFrame()).ok()) ++tally.failed;
  };
  auto receive = [&]() -> bool {
    if (conn->Receive(g.payload).ok() &&
        server::DecodeAckResponse(g.payload).ok()) {
      return true;
    }
    report.Fail("burst phase lost its connection");
    return false;
  };
  for (size_t w = 0; w < kWindow; ++w) send_next();
  for (size_t r = 0; r < g.s.warmup_frames; ++r) {
    if (!receive()) return;
    send_next();
  }
  for (size_t slice = 0; slice < g.s.burst_slices; ++slice) {
    const int64_t start = NowNs();
    for (size_t r = 0; r < g.s.slice_frames; ++r) {
      if (!receive()) return;
      send_next();
    }
    out.burst_rates.push_back(
        RatePerSecond(g.s.slice_frames * kBatch, NowNs() - start));
  }
  for (size_t w = 0; w < kWindow; ++w) {
    if (!receive()) return;
  }
}

// Self time per call of one span name, nanoseconds.
double PerCallNs(const std::map<std::string, LayerTime>& layers,
                 const char* name) {
  auto it = layers.find(name);
  if (it == layers.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.self_ns) /
         static_cast<double>(it->second.count);
}

double SelfNs(const std::map<std::string, LayerTime>& layers,
              const char* name) {
  auto it = layers.find(name);
  return it == layers.end() ? 0.0 : static_cast<double>(it->second.self_ns);
}

}  // namespace

void RunServeCms(const RunConfig& config, Tracer& tracer, Report& report) {
  const Shape s = ShapeFor(config);
  report.Header("phase sizes",
                "universe " + std::to_string(s.universe) + " Zipf(" +
                    std::to_string(s.zipf_s) + ") + " +
                    std::to_string(s.unseen_pool) + " unseen; cms " +
                    std::to_string(s.depth) + "x" + std::to_string(s.width) +
                    "; prefix " + std::to_string(s.prefix_items) +
                    "; query set " + std::to_string(s.query_frames * kBatch) +
                    "; batch " + std::to_string(kBatch) + "; window " +
                    std::to_string(kWindow) + "; paced ingest " +
                    std::to_string(static_cast<long>(s.ingest_rate)) +
                    " keys/s; lockstep " +
                    std::to_string(s.lockstep_segments) + "x" +
                    std::to_string(s.lockstep_round_trips) +
                    "; slices saturated/mixed/burst " +
                    std::to_string(s.saturated_slices) + "/" +
                    std::to_string(s.mixed_slices) + "/" +
                    std::to_string(s.burst_slices) + " of " +
                    std::to_string(s.slice_frames) + " frames");

  const Inputs in = MakeInputs(s, config.seed);
  const std::string socket_path = config.tmpdir + "/serve.sock";
  Generator g(s, in, socket_path);
  for (uint32_t index : in.prefix_index) g.exact.Add(index);
  const ProgramMemory memory;

  // ---- build: the offline count-min over the prefix (train_s) ----------
  const std::string checkpoint = config.tmpdir + "/cms.ckpt";
  std::vector<double> build_seconds;
  uint64_t build_failed = 0;
  for (size_t b = 0; b < s.builds; ++b) {
    ScopedSpan span(tracer, "phase.build", b);
    const int64_t start = NowNs();
    CountMinSketch cms(s.width, s.depth, kSketchSeed);
    cms.UpdateBatch(in.prefix_keys);
    const opthash::Status saved =
        opthash::io::SaveSketchSnapshot(checkpoint, cms);
    build_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    if (!saved.ok()) {
      ++build_failed;
      report.Fail("SaveSketchSnapshot: " + saved.ToString());
    }
  }
  report.Phase("build", s.builds, build_failed);
  if (build_failed != 0) return;

  // ---- set-up: restore + daemon start, repeated (setup_s) -------------
  // A loop's time is the sum of its start-ups; stopping the previous
  // daemon is not part of it.
  std::vector<double> setup_seconds;
  Daemon daemon;
  size_t started = 0;
  for (size_t loop = 0; loop < s.setups.loops; ++loop) {
    ScopedSpan span(tracer, "phase.setup", loop);
    double loop_seconds = 0.0;
    for (size_t k = 0; k < s.setups.per_loop; ++k) {
      daemon = Daemon();  // Stops the previous daemon before rebinding.
      daemon = StartDaemon(checkpoint, socket_path, report);
      if (daemon.server == nullptr) break;
      loop_seconds += daemon.setup_seconds;
      ++started;
    }
    if (daemon.server == nullptr) break;
    setup_seconds.push_back(loop_seconds /
                            static_cast<double>(s.setups.per_loop));
  }
  report.Phase("setup", s.setups.total(), s.setups.total() - started);
  if (daemon.server == nullptr) return;

  // ---- reference: one checked lockstep pass (est_error_*) ------------
  g.CountIngest();
  const std::vector<uint64_t> exact_ref = g.exact_now;
  std::vector<double> reference(in.query_keys.size());
  uint64_t reference_failed = 0;
  {
    ScopedSpan span(tracer, "phase.reference", 0);
    auto client = server::Client::Connect(socket_path);
    std::vector<double> answers;
    for (size_t f = 0; f < s.query_frames; ++f) {
      ++g.query_requests_sent;
      if (!client.ok() ||
          !client.value()
               .Query(Span<const uint64_t>(in.query_keys.data() + f * kBatch,
                                           kBatch),
                      answers)
               .ok()) {
        ++reference_failed;
        continue;
      }
      std::copy(answers.begin(), answers.end(),
                reference.begin() + static_cast<std::ptrdiff_t>(f * kBatch));
    }
  }
  report.Phase("reference", s.query_frames, reference_failed);
  report.Oracle("count-min answers >= exact, mean over-count < e*N/width",
                CheckCountMinAnswers(reference, exact_ref, g.exact.total(),
                                     s.width));
  // Only lockstep requests have reached the daemon so far: its handler
  // latency here is the lockstep handler time.
  const double handler_p50 = daemon.server->StatsNow().query_p50_micros;
  {
    // The paper's query set U is a set: score each distinct key once.
    std::vector<uint8_t> seen(g.exact.universe(), 0);
    ErrorTally errors;
    for (size_t i = 0; i < in.query_index.size(); ++i) {
      if (seen[in.query_index[i]] != 0) continue;
      seen[in.query_index[i]] = 1;
      errors.Add(reference[i], exact_ref[i]);
    }
    report.Note("error over " + std::to_string(errors.queries()) +
                " distinct query keys; expected magnitude of error " +
                std::to_string(errors.expected()));
    report.Set("est_error_avg", errors.average());
  }

  // ---- rounds: lockstep, saturated, mixed, burst ----------------------
  Samples samples;
  PhaseTally lockstep;
  PhaseTally saturated;
  PhaseTally mixed;
  PhaseTally burst;
  for (size_t round = 0; round < s.rounds && report.correct(); ++round) {
    ScopedSpan span(tracer, "phase.round", round);
    Lockstep(g, samples, lockstep);
    Saturated(g, samples, saturated, report);
    Mixed(g, samples, mixed, report);
    g.CountIngest();
    Burst(g, samples, burst, report);
    g.CountIngest();
  }
  report.Phase("lockstep", lockstep.attempted, lockstep.failed);
  report.Phase("saturated", saturated.attempted, saturated.failed);
  report.Phase("mixed", mixed.attempted, mixed.failed);
  report.Phase("burst", burst.attempted, burst.failed);
  report.Oracle("lockstep answers >= exact", lockstep.verdict);
  report.Oracle("saturated answers >= exact, mean over-count < e*N/width",
                saturated.verdict);
  report.Oracle("answers beside paced ingest >= exact", mixed.verdict);
  report.Note("lockstep round trip: " + DescribeLatency(samples.lockstep_us) +
              "; per-connection medians over " +
              std::to_string(samples.segment_p50_us.size()) + " connections");
  report.Note("paced ingest ack: " + DescribeLatency(samples.ingest_ack_us) +
              "; generator lateness: " + DescribeLatency(samples.lateness_us));
  if (!report.correct()) return;

  // ---- final: the ingested counts arrived, and the daemon agrees -------
  {
    auto client = server::Client::Connect(socket_path);
    const size_t frames = std::min<size_t>(s.query_frames, 64);
    std::vector<double> answers;
    std::vector<double> all;
    for (size_t f = 0; f < frames; ++f) {
      ++g.query_requests_sent;
      if (!client.ok() ||
          !client.value()
               .Query(Span<const uint64_t>(in.query_keys.data() + f * kBatch,
                                           kBatch),
                      answers)
               .ok()) {
        report.Fail("final query failed");
        return;
      }
      all.insert(all.end(), answers.begin(), answers.end());
    }
    report.Phase("final", frames, 0);
    report.Oracle("after ingest: answers >= exact, mean over-count bound",
                  CheckCountMinAnswers(
                      all, Span<const uint64_t>(g.exact_now.data(), all.size()),
                      g.exact.total(), s.width));
  }
  const server::ServerStatsSnapshot stats = daemon.server->StatsNow();
  report.Oracle("server counts equal what the generator sent",
                CheckServerCounts(stats, g.query_requests_sent, g.items_sent));

  const double query_p50 = Median(samples.segment_p50_us);
  report.Set("setup_s", Median(setup_seconds));
  report.Set("train_s", Median(build_seconds));
  report.Set("query_keys_per_s", Median(samples.saturated_rates));
  report.Set("load.mixed_query_keys_per_s", Median(samples.mixed_rates));
  report.Set("load.ingest_ack_p50_us", Median(samples.ingest_ack_us));
  report.Set("query_p50_us", query_p50);
  report.Set("cpu_ns_per_key",
             samples.saturated_cpu_s * 1e9 / samples.saturated_keys);
  report.Set("ingest_keys_per_s", Median(samples.burst_rates));
  report.Set("peak_rss_mb", memory.PeakAboveInputsMiB());
  report.Note(memory.Describe());

  // ---- traced replay of the daemon's private layer calls --------------
  for (const char* name :
       {"io.bundle_save_s", "io.bundle_load_s", "stream.featurizer_fit_s",
        "stream.featurize_ns_per_query", "opt.solve_s", "opt.bcd_sweeps",
        "opt.objective", "ml.fit_s", "ml.predict_ns_per_row",
        "core.route_ns_per_key", "core.table_hit_fraction",
        "core.accumulate_ns_per_key"}) {
    report.Set(name, 0.0);  // No learned model on this workload.
  }
  report.Set("server.query_requests", static_cast<double>(stats.query_requests));
  report.Set("server.items_ingested", static_cast<double>(stats.items_ingested));
  report.Set("load.ingest_lateness_us", Median(samples.lateness_us));
  report.Set("server.handler_p50_us", handler_p50);
  report.Set("server.transport_p50_us", query_p50 - handler_p50);
  if (!tracer.enabled()) return;

  std::vector<double> ping_us;
  {
    auto client = server::Client::Connect(socket_path);
    for (size_t i = 0; client.ok() && i < s.lockstep_round_trips; ++i) {
      const int64_t start = NowNs();
      if (!client.value().Ping().ok()) break;
      ping_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    }
  }
  daemon = Daemon();  // The replay runs alone on the host.

  std::unique_ptr<CountMinSketch> cms;
  {
    ScopedSpan span(tracer, "io.snapshot_load", 0);
    auto loaded = opthash::io::LoadSketchSnapshot<CountMinSketch>(checkpoint);
    if (!loaded.ok()) {
      report.Fail("LoadSketchSnapshot: " + loaded.status().ToString());
      return;
    }
    cms = std::make_unique<CountMinSketch>(std::move(loaded).value());
  }
  std::unique_ptr<server::ServedModel> served;
  {
    ScopedSpan span(tracer, "served_model.open", 0);
    auto opened = server::OpenServedModel(checkpoint, /*use_mmap=*/false);
    if (!opened.ok()) {
      report.Fail("OpenServedModel: " + opened.status().ToString());
      return;
    }
    served = std::move(opened.value().model);
  }

  // The kernel table is rebuilt from the prefix through the scatter
  // kernels with the count-min's own hash draws.
  const kernels::KernelOps& ops = kernels::ActiveKernels();
  std::vector<kernels::HashKernelParams> params;
  {
    Rng rng(kSketchSeed);
    for (size_t level = 0; level < s.depth; ++level) {
      params.push_back(kernels::HashKernelParams::From(
          opthash::hashing::LinearHash(s.width, rng)));
    }
  }
  std::vector<uint64_t> table(s.width * s.depth, 0);
  std::vector<uint64_t> idx(s.depth * kBatch);
  for (size_t base = 0; base < in.prefix_keys.size(); base += kBatch) {
    const size_t n = std::min(kBatch, in.prefix_keys.size() - base);
    const uint64_t* keys = in.prefix_keys.data() + base;
    {
      ScopedSpan span(tracer, "kernels.hash.ingest", base / kBatch);
      for (size_t l = 0; l < s.depth; ++l) {
        ops.hash_buckets(params[l], keys, n, idx.data() + l * kBatch);
      }
    }
    ScopedSpan span(tracer, "kernels.scatter_add", base / kBatch);
    for (size_t l = 0; l < s.depth; ++l) {
      ops.scatter_add_u64(table.data() + l * s.width, idx.data() + l * kBatch,
                          n);
    }
  }

  const size_t replay_frames = std::min(s.replay_frames, s.query_frames);
  auto context = served->NewQueryContext();
  std::vector<uint8_t> request;
  std::vector<uint8_t> reply;
  std::vector<uint64_t> keys_out;
  std::vector<double> estimates(kBatch);
  std::vector<double> client_view;
  std::vector<uint64_t> sketch_out(kBatch);
  std::vector<uint64_t> kernel_min(kBatch);
  opthash::Status replay_agrees;
  OverheadProbe probe(tracer);
  bool replay_decoded = true;
  for (size_t f = 0; f < replay_frames && replay_decoded; ++f) {
    const Span<const uint64_t> keys(in.query_keys.data() + f * kBatch, kBatch);
    probe.Run([&](Tracer& t) {
      {
        ScopedSpan request_span(t, "replay.request", f);
        {
          ScopedSpan span(t, "protocol.encode_request", f);
          server::EncodeKeyRequest(server::MessageType::kQuery, keys, request);
        }
        const Span<const uint8_t> request_payload(
            request.data() + server::kFrameHeaderSize,
            request.size() - server::kFrameHeaderSize);
        {
          ScopedSpan span(t, "protocol.decode_request", f);
          replay_decoded &= server::DecodeKeyRequest(
                                request_payload, server::MessageType::kQuery,
                                keys_out)
                                .ok();
        }
        {
          ScopedSpan span(t, "served_model.estimate", f);
          served->EstimateBatch(*context, keys_out, estimates);
        }
        {
          ScopedSpan span(t, "protocol.encode_reply", f);
          server::EncodeEstimatesResponse(estimates, reply);
        }
        {
          ScopedSpan span(t, "protocol.decode_reply", f);
          replay_decoded &=
              server::DecodeEstimatesResponse(
                  Span<const uint8_t>(reply.data() + server::kFrameHeaderSize,
                                      reply.size() - server::kFrameHeaderSize),
                  client_view)
                  .ok();
        }
      }
      {
        ScopedSpan span(t, "sketch.estimate_batch", f);
        cms->EstimateBatch(keys, sketch_out);
      }
      {
        ScopedSpan span(t, "kernels.hash", f);
        for (size_t l = 0; l < s.depth; ++l) {
          ops.hash_buckets(params[l], keys.data(), kBatch,
                           idx.data() + l * kBatch);
        }
      }
      {
        ScopedSpan span(t, "kernels.min_gather", f);
        std::fill(kernel_min.begin(), kernel_min.end(), UINT64_MAX);
        for (size_t l = 0; l < s.depth; ++l) {
          ops.min_gather_u64(table.data() + l * s.width,
                             idx.data() + l * kBatch, kBatch,
                             kernel_min.data());
        }
      }
    });
    for (size_t k = 0; k < kBatch && replay_agrees.ok(); ++k) {
      if (kernel_min[k] != sketch_out[k] ||
          client_view[k] != static_cast<double>(sketch_out[k]) ||
          client_view[k] != reference[f * kBatch + k]) {
        replay_agrees = opthash::Status::Internal(
            "frame " + std::to_string(f) + " key " + std::to_string(k) +
            ": kernel/sketch/served/reference answers differ");
      }
    }
  }
  if (!replay_decoded) {
    report.Fail("a replayed request or reply did not decode");
    return;
  }
  report.Oracle("replayed layers agree with each other and the daemon",
                replay_agrees);

  const size_t ingest_replay_frames = std::min(s.replay_frames,
                                               s.ingest_pool_frames);
  opthash::stream::ShardedIngestConfig sequential;
  sequential.num_threads = 1;
  for (size_t f = 0; f < ingest_replay_frames; ++f) {
    const Span<const uint64_t> keys(in.ingest_keys.data() + f * kBatch,
                                    kBatch);
    {
      ScopedSpan span(tracer, "sketch.update_batch", f);
      cms->UpdateBatch(keys);
    }
    ScopedSpan span(tracer, "served_model.ingest", f);
    if (!served->Ingest(keys, sequential).ok()) {
      report.Fail("replayed ingest failed");
      return;
    }
  }

  const auto layers = tracer.LayerTimes();
  const double query_keys = static_cast<double>(replay_frames * kBatch);
  const double ingest_keys = static_cast<double>(ingest_replay_frames * kBatch);
  const double prefix_keys = static_cast<double>(in.prefix_keys.size());
  report.Set("kernels.hash_ns_per_key", SelfNs(layers, "kernels.hash") / query_keys);
  report.Set("kernels.min_gather_ns_per_key",
             SelfNs(layers, "kernels.min_gather") / query_keys);
  report.Set("kernels.scatter_add_ns_per_key",
             SelfNs(layers, "kernels.scatter_add") / prefix_keys);
  report.Set("sketch.estimate_batch_ns_per_key",
             SelfNs(layers, "sketch.estimate_batch") / query_keys);
  report.Set("sketch.update_batch_ns_per_key",
             SelfNs(layers, "sketch.update_batch") / ingest_keys);
  report.Set("served_model.estimate_ns_per_key",
             SelfNs(layers, "served_model.estimate") / query_keys);
  report.Set("served_model.ingest_ns_per_key",
             SelfNs(layers, "served_model.ingest") / ingest_keys);
  report.Set("served_model.open_s", SelfNs(layers, "served_model.open") * 1e-9);
  report.Set("io.snapshot_load_s", SelfNs(layers, "io.snapshot_load") * 1e-9);
  const double encode_request = PerCallNs(layers, "protocol.encode_request");
  const double decode_request = PerCallNs(layers, "protocol.decode_request");
  const double encode_reply = PerCallNs(layers, "protocol.encode_reply");
  const double decode_reply = PerCallNs(layers, "protocol.decode_reply");
  const double served_estimate = PerCallNs(layers, "served_model.estimate");
  report.Set("protocol.encode_request_ns", encode_request);
  report.Set("protocol.decode_request_ns", decode_request);
  report.Set("protocol.encode_reply_ns", encode_reply);
  report.Set("protocol.decode_reply_ns", decode_reply);
  const double ping_p50 = Median(ping_us);
  report.Set("server.ping_p50_us", ping_p50);

  // The served round trip at batch 512, accounted layer by layer: the
  // replayed per-request self times, plus a ping round trip (socket,
  // event loop and dispatch with no payload work). What is left over is
  // the residual.
  const double layers_us = (encode_request + decode_request + served_estimate +
                            encode_reply + decode_reply) * 1e-3;
  const double round_trip = query_p50;
  report.Set("trace.query_path_residual_us", round_trip - layers_us - ping_p50);
  char account[512];
  std::snprintf(
      account, sizeof(account),
      "round trip %.2f us = encode_request %.2f + decode_request %.2f + "
      "served_model.estimate %.2f (sketch %.2f = hash %.2f + min_gather "
      "%.2f + rest) + encode_reply %.2f + decode_reply %.2f + ping %.2f + "
      "residual %.2f",
      round_trip, encode_request * 1e-3, decode_request * 1e-3,
      served_estimate * 1e-3, PerCallNs(layers, "sketch.estimate_batch") * 1e-3,
      PerCallNs(layers, "kernels.hash") * 1e-3,
      PerCallNs(layers, "kernels.min_gather") * 1e-3, encode_reply * 1e-3,
      decode_reply * 1e-3, ping_p50, round_trip - layers_us - ping_p50);
  report.Note(account);

  SetTraceOverhead(probe, report);
}

}  // namespace perfbench
