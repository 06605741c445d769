// serve_mixed: the real dmtd binary (--socket, --threads 2, --cache 512,
// shipped defaults otherwise) on a bundle built from the seed, driven by
// one client process over AF_UNIX.
//
// Load: an open-loop Poisson schedule of point queries (80% recommend,
// half from a 16-basket hot set and half cold; 10% classify; 10% assign
// cluster) over two connections, driven by one busy-polling client
// thread. Each request is timed from its scheduled send time. Rungs:
// warm-up, `low`, `mid`, then rising rates until one misses the latency
// limit. Every reply must equal, byte for byte apart from the echoed id,
// what an in-process Server::HandleFrames with the cache off returns for
// the same frame.
//
// Set-up is dmtd spawn -> first good reply (ModelBundle::Load included),
// taken over several spawns; memory is dmtd's own peak RSS.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "serve/daemon.h"
#include "serve/model_bundle.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

using dmt::core::Result;
using dmt::core::Status;

namespace {

constexpr char kSocket[] = "dmtd.sock";
constexpr size_t kSetupSpawns = 7;
/// Latency limit on a rung's p99, and the generator's own lateness limit
/// beyond which a rung is invalid rather than slow.
constexpr double kP99LimitUs = 20000.0;
constexpr double kGenLateLimitUs = 500.0;
/// A reply later than this after its due time counts as failed.
constexpr double kReplyTimeoutS = 5.0;
/// Ids above this are control traffic (set-up probes, stats).
constexpr uint64_t kControlIdBase = uint64_t{1} << 62;

struct RungSpec {
  const char* name;
  double rate;    // offered requests per second (open loop)
  size_t window;  // requests in flight per connection (closed loop), or 0
  double share;   // share of --seconds spent sending
  bool reported;  // a rung of the offered-rate ladder
};

// The offered-rate ladder. `low` sits where latency is set by the 200 us
// batch timeout, `mid` where it is set by queueing; the rungs above reach
// past the knee. The ladder stops at the first rung that misses the
// limit. `saturate` then keeps a fixed window of requests in flight on
// each connection and measures the completion rate: dmtd's capacity.
constexpr RungSpec kLadder[] = {
    {"warmup", 20000, 0, 0.05, false}, {"low", 2000, 0, 0.15, true},
    {"mid", 20000, 0, 0.2, true},      {"hi1", 50000, 0, 0.075, true},
    {"hi2", 80000, 0, 0.075, true},    {"hi3", 110000, 0, 0.075, true},
    {"hi4", 140000, 0, 0.075, true},   {"saturate", 0, 64, 0.2, false},
};
constexpr size_t kMidRung = 2;
/// Upper bound on closed-loop completions per second (sizes the schedule).
constexpr double kSaturationCap = 400000;

/// Pool layout (see workloads.h).
struct Pool {
  std::vector<std::vector<std::byte>> frames;
  /// Expected reply per frame (id bytes zero).
  std::vector<std::vector<std::byte>> expected;
};

uint64_t FrameId(std::span<const std::byte> frame) {
  uint64_t id = 0;
  std::memcpy(&id, frame.data() + dmt::serve::kFrameHeaderBytes, sizeof(id));
  return id;
}

void SetFrameId(std::vector<std::byte>* frame, uint64_t id) {
  std::memcpy(frame->data() + dmt::serve::kFrameHeaderBytes, &id, sizeof(id));
}

/// True if `reply` equals `expected` everywhere except the 8 id bytes.
bool SameReply(std::span<const std::byte> reply,
               const std::vector<std::byte>& expected) {
  constexpr size_t kIdEnd = dmt::serve::kFrameHeaderBytes + 8;
  return reply.size() == expected.size() &&
         std::memcmp(reply.data(), expected.data(),
                     dmt::serve::kFrameHeaderBytes) == 0 &&
         std::memcmp(reply.data() + kIdEnd, expected.data() + kIdEnd,
                     reply.size() - kIdEnd) == 0;
}

Result<int> Connect() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, kSocket, sizeof(kSocket));
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(std::strerror(errno));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError(std::strerror(errno));
  }
  return fd;
}

/// One synchronous request/reply on a fresh control connection.
Result<std::vector<std::byte>> RoundTrip(std::vector<std::byte> frame,
                                         uint64_t id) {
  DMT_ASSIGN_OR_RETURN(int fd, Connect());
  SetFrameId(&frame, id);
  Status sent = dmt::serve::WriteAll(fd, frame);
  Result<std::vector<std::byte>> reply =
      sent.ok() ? dmt::serve::ReadFrame(fd, dmt::serve::kResponseMagic)
                : Result<std::vector<std::byte>>(sent);
  ::close(fd);
  if (reply.ok() && (reply.value().empty() || FrameId(reply.value()) != id)) {
    return Status::IOError("control request got no matching reply");
  }
  return reply;
}

/// A running dmtd; killed and reaped on destruction.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Status Start(const std::string& binary) {
    ::unlink(kSocket);
    pid_ = ::fork();
    if (pid_ < 0) return Status::IOError("fork failed");
    if (pid_ == 0) {
      // Never outlive the driver, even if it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int log = ::open("dmtd.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) ::dup2(log, STDERR_FILENO);
      ::execl(binary.c_str(), binary.c_str(), "--tree", "tree.dmt",
              "--kmeans", "kmeans.dmt", "--rules", "rules.dmt", "--socket",
              kSocket, "--threads", "2", "--cache", "512",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    return Status::OK();
  }

  /// Kills and reaps the daemon (idempotent).
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  /// True (and reaped) if the daemon has already exited.
  bool Exited() {
    int status = 0;
    if (pid_ <= 0 || ::waitpid(pid_, &status, WNOHANG) != pid_) return false;
    pid_ = -1;
    return true;
  }

  /// Peak RSS (VmHWM) in MiB, or 0 if unreadable.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::atof(line.c_str() + 6) / 1024.0;
      }
    }
    return 0.0;
  }

  /// User + system CPU seconds used so far.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::atof(field.c_str());
      if (i == 15) stime = std::atof(field.c_str());
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

 private:
  pid_t pid_ = -1;
};

/// Spawns dmtd and waits for its first good reply; returns the seconds
/// from spawn to that reply.
Result<double> SpawnAndProbe(const std::string& binary, const Pool& pool,
                             Daemon* daemon, uint64_t probe_id) {
  const double t0 = Now();
  DMT_RETURN_NOT_OK(daemon->Start(binary));
  for (;;) {
    Result<std::vector<std::byte>> reply = RoundTrip(pool.frames[0], probe_id);
    if (reply.ok()) {
      const double elapsed = Now() - t0;
      if (!SameReply(reply.value(), pool.expected[0])) {
        return Status::Internal("dmtd's first reply differs from in-process");
      }
      return elapsed;
    }
    if (daemon->Exited()) return Status::IOError("dmtd exited at start-up");
    if (Now() - t0 > 60.0) return Status::IOError("dmtd did not come up");
    timespec pause{0, 200000};
    ::nanosleep(&pause, nullptr);
  }
}

// ---- server-side registry snapshots (kStats replies) ---------------------

/// Parses the unsigned number after `key` in `json` (0 if absent).
uint64_t JsonUint(const std::string& json, const std::string& key) {
  const size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

/// Bucket upper bound -> count of the named registry histogram.
std::vector<std::pair<uint64_t, uint64_t>> HistBuckets(
    const std::string& json, const std::string& name) {
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
  size_t at = json.find("\"" + name + "\": {\"count\"");
  if (at == std::string::npos) return buckets;
  at = json.find("\"buckets\": {", at);
  if (at == std::string::npos) return buckets;
  const size_t end = json.find('}', at);
  at += 12;
  while (at < end) {
    const size_t open = json.find('"', at);
    if (open == std::string::npos || open > end) break;
    const size_t close = json.find('"', open + 1);
    const std::string label = json.substr(open + 1, close - open - 1);
    const uint64_t bound =
        label == "+Inf" ? UINT64_MAX
                        : std::strtoull(label.c_str(), nullptr, 10);
    const uint64_t count =
        std::strtoull(json.c_str() + json.find(':', close) + 1, nullptr, 10);
    buckets.emplace_back(bound, count);
    at = json.find_first_of(",}", close + 2);
    if (at == std::string::npos) break;
    ++at;
  }
  return buckets;
}

/// Percentile of (after - before) over a histogram's buckets, linearly
/// interpolated inside the bucket that holds the rank (bucket bounds are
/// up to 1/8 apart, too coarse to subtract from a client latency).
double HistPercentile(const std::string& before, const std::string& after,
                      const std::string& name, double p) {
  std::vector<std::pair<uint64_t, uint64_t>> diff = HistBuckets(after, name);
  for (const auto& [bound, count] : HistBuckets(before, name)) {
    for (auto& entry : diff) {
      if (entry.first == bound) entry.second -= count;
    }
  }
  std::sort(diff.begin(), diff.end());
  uint64_t total = 0;
  for (const auto& entry : diff) total += entry.second;
  if (total == 0) return 0.0;
  const double rank = std::max(1.0, p / 100.0 * static_cast<double>(total));
  double seen = 0;
  for (const auto& [upper, count] : diff) {
    if (count == 0 || seen + static_cast<double>(count) < rank) {
      seen += static_cast<double>(count);
      continue;
    }
    const size_t index = dmt::obs::histogram_buckets::BucketIndex(upper);
    if (upper == UINT64_MAX || index == 0) return static_cast<double>(upper);
    const double lower = static_cast<double>(
        dmt::obs::histogram_buckets::BucketUpperBound(index - 1));
    return lower + (static_cast<double>(upper) - lower) * (rank - seen) /
                       static_cast<double>(count);
  }
  return static_cast<double>(diff.back().first);
}

uint64_t CounterDelta(const std::string& before, const std::string& after,
                      const std::string& name) {
  const std::string key = "\"" + name + "\":";
  return JsonUint(after, key) - JsonUint(before, key);
}

Result<std::string> FetchStats(uint64_t id) {
  dmt::serve::Request request;
  request.type = dmt::serve::RequestType::kStats;
  DMT_ASSIGN_OR_RETURN(
      std::vector<std::byte> reply,
      RoundTrip(dmt::serve::EncodeRequestFrame(request), id));
  DMT_ASSIGN_OR_RETURN(dmt::serve::Response response,
                       dmt::serve::DecodeResponseFrame(reply));
  return response.stats_json;
}

// ---- open-loop load generator ---------------------------------------------

/// Every request of every rung, indexed by id - 1.
struct Schedule {
  struct Rung {
    RungSpec spec;
    size_t begin = 0, end = 0;  // request index range
    size_t sent_end = 0;        // requests [begin, sent_end) were sent
    double start = 0;           // monotonic send start, set when run
    double duration = 0;
  };
  std::vector<Rung> rungs;
  std::vector<double> due;       // seconds after the rung's start
  std::vector<uint32_t> frame;   // pool index
  std::vector<double> sent;      // monotonic send time
  std::vector<double> received;  // monotonic receive time, 0 = none yet
  std::vector<uint8_t> wrong;    // reply differed from in-process
  size_t unknown_replies = 0;
};

/// Draws the request mix and Poisson arrival times from the seed.
void BuildSchedule(uint64_t seed, double seconds,
                   const std::vector<RungSpec>& specs, Schedule* schedule) {
  std::mt19937_64 rng(SubSeed(seed, 20));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const size_t classify_begin = kHotBaskets + kColdBaskets;
  const size_t cluster_begin = classify_begin + kClassifyRecords;
  size_t next_cold = static_cast<size_t>(rng() % kColdBaskets);
  for (const RungSpec& spec : specs) {
    Schedule::Rung rung;
    rung.spec = spec;
    rung.duration = spec.share * seconds;
    rung.begin = schedule->due.size();
    // A closed-loop rung sends back to back; only its mix is drawn here.
    const bool closed = spec.window > 0;
    std::exponential_distribution<double> gap(closed ? 1.0 : spec.rate);
    const size_t closed_count =
        static_cast<size_t>(kSaturationCap * rung.duration);
    for (double t = closed ? 0.0 : gap(rng);
         closed ? schedule->due.size() - rung.begin < closed_count
                : t < rung.duration;
         t = closed ? 0.0 : t + gap(rng)) {
      const double u = unit(rng);
      uint32_t index = 0;
      if (u < 0.4) {
        index = static_cast<uint32_t>(rng() % kHotBaskets);
      } else if (u < 0.8) {
        index = static_cast<uint32_t>(kHotBaskets + next_cold);
        next_cold = (next_cold + 1) % kColdBaskets;
      } else if (u < 0.9) {
        index =
            static_cast<uint32_t>(classify_begin + rng() % kClassifyRecords);
      } else {
        index = static_cast<uint32_t>(cluster_begin + rng() % kClusterPoints);
      }
      schedule->due.push_back(t);
      schedule->frame.push_back(index);
    }
    rung.end = schedule->due.size();
    schedule->rungs.push_back(rung);
  }
  const size_t n = schedule->due.size();
  schedule->sent.assign(n, 0.0);
  schedule->received.assign(n, 0.0);
  schedule->wrong.assign(n, 0);
}

/// One load connection, non-blocking, with its unsent and unparsed bytes.
struct Connection {
  int fd = -1;
  std::vector<std::byte> out;
  size_t out_done = 0;
  std::vector<std::byte> in;
};

/// Writes as much pending output as the socket takes.
Status Flush(Connection* c) {
  while (c->out_done < c->out.size()) {
    const ssize_t n = ::write(c->fd, c->out.data() + c->out_done,
                              c->out.size() - c->out_done);
    if (n < 0) {
      if (errno == EAGAIN || errno == EINTR) return Status::OK();
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    c->out_done += static_cast<size_t>(n);
  }
  c->out.clear();
  c->out_done = 0;
  return Status::OK();
}

/// Reads what the socket has and checks every complete reply frame.
/// `in_rung` counts the replies to requests of [rung_begin, rung_end).
Status Receive(Connection* c, const Pool& pool, Schedule* schedule,
               size_t rung_begin, size_t rung_end, size_t* in_rung) {
  std::byte chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(c->fd, chunk, sizeof(chunk));
    if (n == 0) return Status::IOError("dmtd closed a load connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EINTR) break;
      return Status::IOError(std::string("read: ") + std::strerror(errno));
    }
    c->in.insert(c->in.end(), chunk, chunk + n);
  }
  const double now = Now();
  size_t at = 0;
  while (c->in.size() - at >= dmt::serve::kFrameHeaderBytes) {
    DMT_ASSIGN_OR_RETURN(
        uint32_t body,
        dmt::serve::CheckFrameHeader(
            std::span<const std::byte>(c->in.data() + at,
                                       dmt::serve::kFrameHeaderBytes),
            dmt::serve::kResponseMagic));
    const size_t size = dmt::serve::kFrameHeaderBytes + body;
    if (c->in.size() - at < size) break;
    const std::span<const std::byte> reply(c->in.data() + at, size);
    at += size;
    const uint64_t id = FrameId(reply);
    if (id == 0 || id > schedule->due.size()) {
      ++schedule->unknown_replies;
      continue;
    }
    const size_t index = id - 1;
    if (index >= rung_begin && index < rung_end) ++*in_rung;
    schedule->received[index] = now;
    schedule->wrong[index] =
        SameReply(reply, pool.expected[schedule->frame[index]]) ? 0 : 1;
  }
  c->in.erase(c->in.begin(), c->in.begin() + static_cast<std::ptrdiff_t>(at));
  return Status::OK();
}

/// Client-side outcome of one rung.
struct RungStats {
  size_t sent = 0, ok = 0, failed = 0, wrong = 0;
  double p50_us = 0, p99_us = 0, gen_late_p50_us = 0, gen_late_p99_us = 0;
  size_t backlog_end = 0;
  /// dmtd CPU seconds spent while the rung ran.
  double dmtd_cpu_s = 0;
  /// Median completions per second over 100 ms slices of the sending
  /// window, skipping its first tenth (closed-loop rungs).
  double throughput = 0;
  bool valid = true, pass = true;
};

/// Runs one rung on a single busy-polling thread: sends every request at
/// its due time (alternating connections), reads replies as they come,
/// and keeps polling until the rung's replies are in or time out. A
/// polling loop rather than sleeping threads, because wake-up delays of
/// idle virtual CPUs would otherwise dominate generator lateness.
Result<RungStats> RunRung(Connection conns[2], const Pool& pool,
                          Schedule* schedule, size_t r) {
  Schedule::Rung& rung = schedule->rungs[r];
  const size_t window = rung.spec.window;
  rung.start = Now() + 0.002;
  const double send_end = rung.start + rung.duration;
  const double deadline = send_end + kReplyTimeoutS;
  size_t next = rung.begin;
  size_t checked = rung.begin;  // replies below this index are in
  size_t in_flight[2] = {0, 0};
  auto enqueue = [&](size_t k) {
    Connection& c = conns[k];
    const std::vector<std::byte>& frame = pool.frames[schedule->frame[next]];
    const size_t offset = c.out.size();
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    const uint64_t id = next + 1;
    std::memcpy(c.out.data() + offset + dmt::serve::kFrameHeaderBytes, &id,
                sizeof(id));
    schedule->sent[next] = Now();
    ++in_flight[k];
    ++next;
  };
  for (;;) {
    const double now = Now();
    if (window == 0) {
      while (next < rung.end && rung.start + schedule->due[next] <= now) {
        enqueue(next % 2);
      }
    } else if (now >= rung.start && now < send_end) {
      for (size_t k = 0; k < 2; ++k) {
        while (in_flight[k] < window && next < rung.end) enqueue(k);
      }
    }
    for (size_t k = 0; k < 2; ++k) {
      DMT_RETURN_NOT_OK(Flush(&conns[k]));
      size_t replies = 0;
      DMT_RETURN_NOT_OK(Receive(&conns[k], pool, schedule, rung.begin,
                                rung.end, &replies));
      in_flight[k] -= std::min(in_flight[k], replies);
    }
    while (checked < next && schedule->received[checked] != 0.0) ++checked;
    if (window > 0) {
      // Closed loop: nothing is due at a set time, so block until a reply
      // arrives instead of spinning, and leave the CPUs to dmtd.
      pollfd ready[2] = {{conns[0].fd, POLLIN, 0}, {conns[1].fd, POLLIN, 0}};
      ::poll(ready, 2, 1);
    }
    const bool sending_done =
        window == 0 ? next == rung.end : now >= send_end;
    if ((sending_done && checked == next) || now > deadline) break;
  }
  rung.sent_end = next;

  RungStats stats;
  double last_sent = 0;
  std::vector<double> latency_us, late_us;
  for (size_t i = rung.begin; i < rung.sent_end; ++i) {
    last_sent = std::max(last_sent, schedule->sent[i]);
  }
  const double window_start = rung.start + 0.1 * rung.duration;
  constexpr double kSlice = 0.1;
  std::vector<double> slice_completions(
      static_cast<size_t>((send_end - window_start) / kSlice), 0.0);
  for (size_t i = rung.begin; i < rung.sent_end; ++i) {
    // Open loop: timed from the due time; closed loop: from the send.
    const double due =
        window == 0 ? rung.start + schedule->due[i] : schedule->sent[i];
    const double received = schedule->received[i];
    ++stats.sent;
    late_us.push_back((schedule->sent[i] - due) * 1e6);
    if (received == 0.0 || received > last_sent) ++stats.backlog_end;
    if (received == 0.0 || received - due > kReplyTimeoutS) {
      ++stats.failed;
      continue;
    }
    if (schedule->wrong[i]) {
      ++stats.failed;
      ++stats.wrong;
      continue;
    }
    ++stats.ok;
    latency_us.push_back((received - due) * 1e6);
    const size_t slice =
        static_cast<size_t>((received - window_start) / kSlice);
    if (received >= window_start && slice < slice_completions.size()) {
      slice_completions[slice] += 1.0 / kSlice;
    }
  }
  stats.throughput = Median(slice_completions);
  stats.p50_us = Median(latency_us);
  stats.p99_us = Percentile(latency_us, 99.0);
  stats.gen_late_p50_us = Median(late_us);
  stats.gen_late_p99_us = Percentile(late_us, 99.0);
  stats.valid = stats.gen_late_p99_us <= kGenLateLimitUs;
  const double backlog_limit = 16.0 + rung.spec.rate * kP99LimitUs * 1e-6;
  stats.pass = stats.valid && stats.failed == 0 &&
               stats.p99_us <= kP99LimitUs &&
               static_cast<double>(stats.backlog_end) <= backlog_limit;
  return stats;
}

// ---- in-process phase-API replay (traced runs) ----------------------------

struct PhaseCosts {
  double prepare_us = 0, lookup_us = 0, eval_batch_us = 0, fold_us = 0,
         insert_us = 0, encode_us = 0, decode_us = 0;
};

/// Replays `frames` through the Server phase API in batches of 8 and
/// times each public call; also times the protocol encode / decode.
Result<PhaseCosts> ReplayPhases(
    std::shared_ptr<const dmt::serve::ModelBundle> bundle, const Pool& pool,
    const std::vector<uint32_t>& frames) {
  dmt::serve::ServeOptions options;
  options.num_threads = 2;
  options.cache_capacity = 512;
  dmt::serve::Server server(std::move(bundle), options);
  constexpr size_t kBatch = 8;
  double prepare = 0, lookup = 0, eval = 0, fold = 0, insert = 0;
  size_t batches = 0, recommends = 0, mismatches = 0;
  for (size_t b = 0; b < frames.size(); b += kBatch) {
    const size_t end = std::min(frames.size(), b + kBatch);
    std::vector<dmt::serve::PreparedRequest> prepared;
    prepared.reserve(end - b);
    const double t0 = Now();
    for (size_t i = b; i < end; ++i) {
      prepared.push_back(server.Prepare(pool.frames[frames[i]]));
    }
    const double t1 = Now();
    std::vector<dmt::serve::PreparedRequest*> batch;
    for (auto& p : prepared) {
      if (p.failed) continue;
      if (p.request.type == dmt::serve::RequestType::kRecommend) {
        server.LookupCache(&p);
        ++recommends;
      }
      batch.push_back(&p);
    }
    const double t2 = Now();
    dmt::serve::Server::BatchTally tally =
        server.EvaluateBatch(std::span<dmt::serve::PreparedRequest*>(batch));
    const double t3 = Now();
    server.FoldTally(tally);
    const double t4 = Now();
    for (const auto& p : prepared) server.InsertCacheMisses(p);
    const double t5 = Now();
    for (size_t i = b; i < end; ++i) {
      mismatches += prepared[i - b].encoded == pool.expected[frames[i]] ? 0 : 1;
    }
    prepare += t1 - t0;
    lookup += t2 - t1;
    eval += t3 - t2;
    fold += t4 - t3;
    insert += t5 - t4;
    ++batches;
  }
  PhaseCosts costs;
  const double n = static_cast<double>(frames.size());
  costs.prepare_us = prepare / n * 1e6;
  costs.lookup_us =
      recommends == 0 ? 0.0 : lookup / static_cast<double>(recommends) * 1e6;
  costs.eval_batch_us = eval / static_cast<double>(batches) * 1e6;
  costs.fold_us = fold / static_cast<double>(batches) * 1e6;
  costs.insert_us = insert / n * 1e6;

  std::vector<dmt::serve::Request> requests;
  for (uint32_t f : frames) {
    requests.push_back(
        dmt::serve::DecodeRequestFrame(pool.frames[f]).value());
  }
  double t0 = Now();
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::vector<std::byte> encoded =
        dmt::serve::EncodeRequestFrame(requests[i]);
    mismatches += encoded != pool.frames[frames[i]] ? 1 : 0;
  }
  costs.encode_us = (Now() - t0) / n * 1e6;
  t0 = Now();
  for (uint32_t f : frames) {
    mismatches +=
        dmt::serve::DecodeResponseFrame(pool.expected[f]).ok() ? 0 : 1;
  }
  costs.decode_us = (Now() - t0) / n * 1e6;
  if (mismatches != 0) {
    return Status::Internal("phase-API or protocol replay mismatched");
  }
  return costs;
}

}  // namespace

Status RunServeMixed(const RunConfig& config, RunResult* result) {
  if (config.dmtd.empty()) return Status::InvalidArgument("--dmtd is required");
  if (::chdir(config.dir.c_str()) != 0) {
    return Status::IOError("cannot enter " + config.dir);
  }
  ::signal(SIGPIPE, SIG_IGN);

  // ---- client preparation (not part of dmtd's set-up) ----
  Pool pool;
  DMT_ASSIGN_OR_RETURN(pool.frames, ReadPool(kPoolFile));
  if (pool.frames.size() !=
      kHotBaskets + kColdBaskets + kClassifyRecords + kClusterPoints) {
    return Status::Corruption("request pool has the wrong size");
  }
  dmt::serve::ModelPaths paths{"tree.dmt", "", "kmeans.dmt", "rules.dmt"};
  std::vector<double> load_s;
  std::shared_ptr<const dmt::serve::ModelBundle> bundle;
  for (size_t i = 0; i < (config.trace ? 3u : 1u); ++i) {
    const double t0 = Now();
    DMT_ASSIGN_OR_RETURN(bundle, dmt::serve::ModelBundle::Load(paths));
    load_s.push_back(Now() - t0);
  }
  {
    dmt::serve::Server reference(bundle, dmt::serve::ServeOptions{});
    pool.expected = reference.HandleFrames(pool.frames);
  }
  for (const std::vector<std::byte>& reply : pool.expected) {
    DMT_ASSIGN_OR_RETURN(dmt::serve::Response response,
                         dmt::serve::DecodeResponseFrame(reply));
    if (response.status != 0) {
      return Status::Internal("pool request fails in-process: " +
                              response.error);
    }
  }
  std::vector<RungSpec> specs(std::begin(kLadder), std::end(kLadder));
  if (config.trace) {
    // A second `mid` bracketed by registry snapshots: the traced twin.
    specs.insert(specs.begin() + kMidRung + 1,
                 RungSpec{"mid_traced", specs[kMidRung].rate, 0,
                          specs[kMidRung].share, false});
  }
  Schedule schedule;
  BuildSchedule(config.seed, config.seconds, specs, &schedule);

  // ---- set-up: dmtd spawn -> first good reply, several times ----
  std::vector<double> setup_s;
  Daemon daemon;
  for (size_t i = 0; i < kSetupSpawns; ++i) {
    if (i > 0) daemon.Stop();
    DMT_ASSIGN_OR_RETURN(double s, SpawnAndProbe(config.dmtd, pool, &daemon,
                                                 kControlIdBase + i));
    setup_s.push_back(s);
  }

  Connection conns[2];
  for (Connection& c : conns) {
    DMT_ASSIGN_OR_RETURN(c.fd, Connect());
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }

  const double cpu_start = daemon.CpuSeconds();
  std::vector<RungStats> rung_stats(schedule.rungs.size());
  std::vector<bool> rung_ran(schedule.rungs.size(), false);
  std::string stats_before, stats_after;
  double rss_mb = 0, max_rps = 0;
  bool ladder_open = true;
  Status failure;
  for (size_t r = 0; r < schedule.rungs.size() && failure.ok(); ++r) {
    const RungSpec& spec = schedule.rungs[r].spec;
    const bool above_mid = spec.rate > kLadder[kMidRung].rate;
    if (spec.reported && above_mid && !ladder_open) continue;
    if (std::string(spec.name) == "mid_traced") {
      Result<std::string> before = FetchStats(kControlIdBase + 100);
      if (!before.ok()) {
        failure = before.status();
        break;
      }
      stats_before = before.value();
    }
    const double rung_cpu0 = daemon.CpuSeconds();
    Result<RungStats> ran = RunRung(conns, pool, &schedule, r);
    if (!ran.ok()) {
      failure = ran.status();
      break;
    }
    rung_stats[r] = ran.value();
    rung_stats[r].dmtd_cpu_s = daemon.CpuSeconds() - rung_cpu0;
    rung_ran[r] = true;
    const RungStats& done = rung_stats[r];
    std::fprintf(stderr,
                 "rung %-10s %7.0f/s sent %7zu failed %zu p50 %7.1f us "
                 "p99 %8.1f us late p99 %6.1f us backlog %zu %s "
                 "completed %.0f/s\n",
                 spec.name, spec.rate, done.sent, done.failed, done.p50_us,
                 done.p99_us, done.gen_late_p99_us, done.backlog_end,
                 !spec.reported ? "-"
                 : !done.valid  ? "INVALID"
                 : done.pass    ? "pass"
                                : "miss",
                 done.throughput);
    if (std::string(spec.name) == "mid_traced") {
      Result<std::string> after = FetchStats(kControlIdBase + 101);
      if (!after.ok()) {
        failure = after.status();
        break;
      }
      stats_after = after.value();
    }
    if (std::string(spec.name) == "mid") rss_mb = daemon.PeakRssMb();
    if (spec.reported) {
      if (!rung_stats[r].pass) {
        ladder_open = false;
      } else if (ladder_open) {
        max_rps = spec.rate;
      }
    }
  }
  const double dmtd_cpu = daemon.CpuSeconds() - cpu_start;
  for (Connection& c : conns) ::close(c.fd);
  daemon.Stop();
  DMT_RETURN_NOT_OK(failure);

  const RungStats* low = nullptr;
  const RungStats* mid = nullptr;
  const RungStats* mid_traced = nullptr;
  const RungStats* saturate = nullptr;
  for (size_t r = 0; r < schedule.rungs.size(); ++r) {
    if (!rung_ran[r]) continue;
    const RungStats& s = rung_stats[r];
    const std::string name = schedule.rungs[r].spec.name;
    if (name == "low") low = &s;
    if (name == "mid") mid = &s;
    if (name == "mid_traced") mid_traced = &s;
    if (name == "saturate") saturate = &s;
    result->attempted += s.sent;
    result->failed += s.failed;
    if (s.wrong > 0) {
      result->Mismatch(name + ": " + std::to_string(s.wrong) +
                       " replies differ from the in-process server");
    }
  }
  if (schedule.unknown_replies > 0) {
    result->Mismatch("replies with unknown ids");
  }
  // The reported medians need the generator on time for the median
  // request; the stricter p99 rule only marks rungs invalid.
  if (low == nullptr || mid == nullptr || saturate == nullptr ||
      low->gen_late_p50_us > kGenLateLimitUs ||
      mid->gen_late_p50_us > kGenLateLimitUs) {
    return Status::Internal(
        "load generator fell behind at the low or mid rung");
  }

  MetricSink& m = result->metrics;
  if (!config.trace) {
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("peak_rss_mb", rss_mb, "MB");
    m.Add("ok_ratio",
          static_cast<double>(result->attempted - result->failed) /
              static_cast<double>(result->attempted),
          "ratio");
    m.Add("op_ms", mid->p50_us * 1e-3, "ms");
    m.Add("cpu_ms_per_op",
          mid->dmtd_cpu_s * 1e3 /
              static_cast<double>(std::max<size_t>(1, mid->ok)),
          "ms");
    m.Add("throughput_per_s", saturate->throughput, "1/s");
    return Status::OK();
  }

  const std::string& b = stats_before;
  const std::string& a = stats_after;
  const double server_total_p50 =
      HistPercentile(b, a, "serve/latency/total_us", 50);
  m.Add("serve.p50_us_low", low->p50_us, "us");
  m.Add("serve.p50_us_mid", mid->p50_us, "us");
  m.Add("serve.p99_us_mid", mid->p99_us, "us");
  m.Add("serve.max_rps", max_rps, "1/s");
  m.Add("serve.bundle_load_ms", Median(load_s) * 1e3, "ms");
  m.Add("serve.queue_us_p50",
        HistPercentile(b, a, "serve/latency/queue_us", 50), "us");
  m.Add("serve.queue_us_p99",
        HistPercentile(b, a, "serve/latency/queue_us", 99), "us");
  m.Add("serve.prepare_us_p50",
        HistPercentile(b, a, "serve/latency/prepare_us", 50), "us");
  m.Add("serve.eval_us_p50", HistPercentile(b, a, "serve/latency/eval_us", 50),
        "us");
  m.Add("serve.eval_us_p99", HistPercentile(b, a, "serve/latency/eval_us", 99),
        "us");
  m.Add("serve.total_us_p50", server_total_p50, "us");
  const uint64_t requests = CounterDelta(b, a, "serve/requests");
  const uint64_t batches = CounterDelta(b, a, "serve/batches");
  const uint64_t lookups = CounterDelta(b, a, "serve/cache_lookups");
  const uint64_t hits = CounterDelta(b, a, "serve/cache_hits");
  const uint64_t baskets = CounterDelta(b, a, "serve/baskets_scored");
  const uint64_t scanned = CounterDelta(b, a, "serve/rules_scanned");
  m.Add("serve.mean_batch",
        batches == 0 ? 0.0 : static_cast<double>(requests) / batches, "count");
  m.Add("serve.cache_hit_ratio",
        lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups, "ratio");
  m.Add("serve.rules_scanned_per_basket",
        baskets == 0 ? 0.0 : static_cast<double>(scanned) / baskets, "count");
  m.Add("serve.transport_us_p50", mid_traced->p50_us - server_total_p50, "us");

  const Schedule::Rung& mid_rung = schedule.rungs[kMidRung];
  std::vector<uint32_t> replay(
      schedule.frame.begin() + static_cast<std::ptrdiff_t>(mid_rung.begin),
      schedule.frame.begin() +
          static_cast<std::ptrdiff_t>(std::min(mid_rung.end,
                                               mid_rung.begin + 20000)));
  DMT_ASSIGN_OR_RETURN(PhaseCosts costs, ReplayPhases(bundle, pool, replay));
  m.Add("serve.prepare_call_us", costs.prepare_us, "us");
  m.Add("serve.lookup_call_us", costs.lookup_us, "us");
  m.Add("serve.eval_batch_call_us", costs.eval_batch_us, "us");
  m.Add("serve.fold_call_us", costs.fold_us, "us");
  m.Add("serve.insert_call_us", costs.insert_us, "us");
  m.Add("serve.encode_us", costs.encode_us, "us");
  m.Add("serve.decode_us", costs.decode_us, "us");

  for (size_t r = 0; r < schedule.rungs.size(); ++r) {
    const RungSpec& spec = schedule.rungs[r].spec;
    if (!spec.reported) continue;
    const RungStats& s = rung_stats[r];  // zeros for rungs not run
    const std::string suffix = std::string(".") + spec.name;
    m.Add("serve.client_sent" + suffix, static_cast<double>(s.sent), "count");
    m.Add("serve.client_failed" + suffix, static_cast<double>(s.failed),
          "count");
    // An invalid rung (generator behind) reports no latency.
    m.Add("serve.p99_us" + suffix, s.valid ? s.p99_us : 0.0, "us");
    m.Add("serve.gen_late_us_p99" + suffix, s.gen_late_p99_us, "us");
    m.Add("serve.backlog_end" + suffix, static_cast<double>(s.backlog_end),
          "count");
    m.Add("serve.rung_valid" + suffix, rung_ran[r] && s.valid ? 1.0 : 0.0,
          "bool");
  }
  m.Add("obs.trace_overhead", mid_traced->p50_us / mid->p50_us, "ratio");
  m.Add("proc.cpu_s", dmtd_cpu, "s");
  return Status::OK();
}

}  // namespace perfbench
