#include "service/wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/failpoint.hpp"

namespace picasso::service {

const char* to_string(ServiceErrorCode code) noexcept {
  switch (code) {
    case ServiceErrorCode::BadRequest: return "bad-request";
    case ServiceErrorCode::OverBudget: return "over-budget";
    case ServiceErrorCode::QueueFull: return "queue-full";
    case ServiceErrorCode::Cancelled: return "cancelled";
    case ServiceErrorCode::ShuttingDown: return "shutting-down";
    case ServiceErrorCode::Internal: return "internal";
    case ServiceErrorCode::DeadlineExceeded: return "deadline-exceeded";
    case ServiceErrorCode::StorageFull: return "storage-full";
  }
  return "?";
}

// --------------------------------------------------------------------------
// WireWriter / WireReader.

void WireWriter::str(const std::string& s) {
  if (s.size() > kMaxFrameBytes) throw WireError("string too long for frame");
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::span<std::uint8_t> WireWriter::blob(std::size_t len) {
  if (len > kMaxFrameBytes) throw WireError("blob too long for frame");
  u32(static_cast<std::uint32_t>(len));
  return {extend(len), len};
}

const std::uint8_t* WireReader::take(std::size_t n) {
  if (size_ - pos_ < n) throw WireError("truncated frame payload");
  const std::uint8_t* at = data_ + pos_;
  pos_ += n;
  return at;
}

std::uint8_t WireReader::u8() { return *take(1); }

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  __builtin_memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  const std::uint32_t len = u32();
  return std::string(reinterpret_cast<const char*>(take(len)), len);
}

std::span<const std::uint8_t> WireReader::blob() {
  const std::uint32_t len = u32();
  return {take(len), len};
}

// --------------------------------------------------------------------------
// Messages.

std::vector<std::uint8_t> encode_solve_request(const SolveRequestMsg& msg) {
  WireWriter w;
  // Fixed fields, the tenant string and the length-prefixed records blob.
  constexpr std::size_t kFixedBytes =
      4 + 8 + 4 + 8 + 8 + 8 + 4 + 1 + 1 + 8 + 1 + 8;
  const std::size_t blob_size = msg.records.binary_size();
  w.reserve(kFixedBytes + 4 + msg.tenant.size() + 4 + blob_size);
  w.u32(kProtocolVersion);
  w.u64(msg.id);
  w.str(msg.tenant);
  w.u32(msg.priority);
  w.f64(msg.params.palette_percent);
  w.f64(msg.params.alpha);
  w.u64(msg.params.seed);
  w.u32(static_cast<std::uint32_t>(msg.params.max_iterations));
  w.u8(msg.params.backend);
  w.u8(msg.params.strategy);
  w.u64(msg.params.memory_budget_bytes);
  w.u8(msg.params.want_progress ? 1 : 0);
  w.u64(msg.params.deadline_ms);
  msg.records.save_binary(w.blob(blob_size));
  return w.take();
}

SolveRequestMsg decode_solve_request(
    const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  const std::uint32_t version = r.u32();
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    throw WireError("protocol version " + std::to_string(version) +
                    " outside supported range [" +
                    std::to_string(kMinProtocolVersion) + ", " +
                    std::to_string(kProtocolVersion) + "]");
  }
  SolveRequestMsg msg;
  msg.id = r.u64();
  msg.tenant = r.str();
  msg.priority = r.u32();
  msg.params.palette_percent = r.f64();
  msg.params.alpha = r.f64();
  msg.params.seed = r.u64();
  msg.params.max_iterations = static_cast<std::int32_t>(r.u32());
  msg.params.backend = r.u8();
  msg.params.strategy = r.u8();
  msg.params.memory_budget_bytes = r.u64();
  msg.params.want_progress = r.u8() != 0;
  // deadline_ms joined in v2; v1 requests simply have no deadline.
  msg.params.deadline_ms = version >= 2 ? r.u64() : 0;
  const std::span<const std::uint8_t> blob = r.blob();
  try {
    msg.records = pauli::PauliSet::load_binary(blob);
  } catch (const std::exception& error) {
    throw WireError(std::string("bad Pauli payload: ") + error.what());
  }
  return msg;
}

std::vector<std::uint8_t> encode_cancel(std::uint64_t id) {
  WireWriter w;
  w.u64(id);
  return w.take();
}

std::uint64_t decode_cancel(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  return r.u64();
}

std::vector<std::uint8_t> encode_progress(const ProgressMsg& msg) {
  WireWriter w;
  w.u64(msg.id);
  w.u8(msg.stage);
  w.u32(static_cast<std::uint32_t>(msg.iteration));
  w.u32(msg.n_active);
  w.u32(msg.colored);
  w.u32(msg.uncolored);
  w.u64(msg.conflict_edges);
  return w.take();
}

ProgressMsg decode_progress(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  ProgressMsg msg;
  msg.id = r.u64();
  msg.stage = r.u8();
  msg.iteration = static_cast<std::int32_t>(r.u32());
  msg.n_active = r.u32();
  msg.colored = r.u32();
  msg.uncolored = r.u32();
  msg.conflict_edges = r.u64();
  return msg;
}

std::vector<std::uint8_t> encode_result(const ResultMsg& msg) {
  WireWriter w;
  // Fixed fields, the reason string and the length-prefixed colors.
  constexpr std::size_t kFixedBytes = 8 + 1 + 8 + 8 + 4 + 4 + 4 + 8 + 1;
  w.reserve(kFixedBytes + 4 + msg.degraded_reason.size() + 4 +
            4 * msg.colors.size());
  w.u64(msg.id);
  w.u8(msg.cache_hit ? 1 : 0);
  w.u64(msg.problem_hash);
  w.u64(msg.coloring_hash);
  w.u32(msg.num_colors);
  w.u32(msg.palette_total);
  w.u32(msg.iterations);
  w.f64(msg.seconds);
  w.u8(msg.degraded ? 1 : 0);
  w.str(msg.degraded_reason);
  w.u32(static_cast<std::uint32_t>(msg.colors.size()));
  std::uint8_t* out = w.extend(4 * msg.colors.size());
  for (std::uint32_t c : msg.colors) {
    store_le(out, c);
    out += 4;
  }
  return w.take();
}

ResultMsg decode_result(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  ResultMsg msg;
  msg.id = r.u64();
  msg.cache_hit = r.u8() != 0;
  msg.problem_hash = r.u64();
  msg.coloring_hash = r.u64();
  msg.num_colors = r.u32();
  msg.palette_total = r.u32();
  msg.iterations = r.u32();
  msg.seconds = r.f64();
  msg.degraded = r.u8() != 0;
  msg.degraded_reason = r.str();
  const std::uint32_t n = r.u32();
  if (static_cast<std::size_t>(n) * 4 > r.remaining()) {
    throw WireError("result color count exceeds payload");
  }
  msg.colors.resize(n);
  const std::uint8_t* in = r.take(static_cast<std::size_t>(n) * 4);
  for (std::uint32_t& c : msg.colors) {
    c = load_le<std::uint32_t>(in);
    in += 4;
  }
  return msg;
}

std::vector<std::uint8_t> encode_error(const ErrorMsg& msg) {
  WireWriter w;
  w.u64(msg.id);
  w.u8(static_cast<std::uint8_t>(msg.code));
  w.str(msg.message);
  return w.take();
}

ErrorMsg decode_error(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  ErrorMsg msg;
  msg.id = r.u64();
  msg.code = static_cast<ServiceErrorCode>(r.u8());
  msg.message = r.str();
  return msg;
}

std::vector<std::uint8_t> encode_stats(const StatsMsg& msg) {
  WireWriter w;
  w.u64(msg.received);
  w.u64(msg.completed);
  w.u64(msg.cache_hits);
  w.u64(msg.cache_misses);
  w.u64(msg.rejected_over_budget);
  w.u64(msg.rejected_queue_full);
  w.u64(msg.cancelled);
  w.u64(msg.active);
  w.u64(msg.queued);
  w.u64(msg.spill_files_live);
  w.u64(msg.client_disconnects);
  w.u64(msg.idle_disconnects);
  w.u64(msg.deadline_exceeded);
  w.u64(msg.degraded);
  w.u64(msg.orphan_spills_swept);
  return w.take();
}

StatsMsg decode_stats(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  StatsMsg msg;
  msg.received = r.u64();
  msg.completed = r.u64();
  msg.cache_hits = r.u64();
  msg.cache_misses = r.u64();
  msg.rejected_over_budget = r.u64();
  msg.rejected_queue_full = r.u64();
  msg.cancelled = r.u64();
  msg.active = r.u64();
  msg.queued = r.u64();
  msg.spill_files_live = r.u64();
  msg.client_disconnects = r.u64();
  msg.idle_disconnects = r.u64();
  msg.deadline_exceeded = r.u64();
  msg.degraded = r.u64();
  msg.orphan_spills_swept = r.u64();
  return msg;
}

// --------------------------------------------------------------------------
// Sockets.

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw WireError(what + ": " + std::strerror(errno));
}

struct ParsedAddress {
  bool is_unix = false;
  std::string path;  // unix
  std::string host;  // tcp
  std::uint16_t port = 0;
};

ParsedAddress parse_address(const std::string& address) {
  ParsedAddress parsed;
  if (address.rfind("unix:", 0) == 0) {
    parsed.is_unix = true;
    parsed.path = address.substr(5);
    if (parsed.path.empty()) throw WireError("empty unix socket path");
    if (parsed.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw WireError("unix socket path too long: " + parsed.path);
    }
    return parsed;
  }
  if (address.rfind("tcp:", 0) == 0) {
    const std::string rest = address.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      throw WireError("tcp address must be tcp:HOST:PORT, got " + address);
    }
    parsed.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    char* end = nullptr;
    const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
    if (end == port_str.c_str() || *end != '\0' || port > 65535) {
      throw WireError("bad tcp port '" + port_str + "'");
    }
    parsed.port = static_cast<std::uint16_t>(port);
    return parsed;
  }
  throw WireError("address must start with unix: or tcp:, got " + address);
}

void write_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    // Failpoint "wire.send": error injects a reset-like failure, delay
    // simulates a slow peer, short:N splits the transfer (exercising this
    // loop exactly like a kernel short write would).
    std::size_t attempt = len;
    try {
      // max(1, ...): a zero-length clamp would make send() a no-op loop.
      attempt = std::max<std::size_t>(
          1, PICASSO_FAILPOINT_CLAMP("wire.send", len));
    } catch (const util::InjectedFault& fault) {
      throw WireError(fault.what());
    }
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a process kill.
    const ssize_t n = ::send(fd, p, attempt, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO expiry — the peer stopped draining its socket.
        throw WireTimeout("send timed out (peer not reading)");
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        throw WireDisconnect(std::string("peer gone: ") +
                             std::strerror(errno));
      }
      throw_errno("send");
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// True on full read; false on clean EOF before the first byte.
bool read_exact(int fd, void* data, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < len) {
    std::size_t attempt = len - got;
    try {
      // max(1, ...): recv(fd, p, 0) returning 0 would read as EOF.
      attempt = std::max<std::size_t>(
          1, PICASSO_FAILPOINT_CLAMP("wire.recv", len - got));
    } catch (const util::InjectedFault& fault) {
      throw WireError(fault.what());
    }
    const ssize_t n = ::recv(fd, p + got, attempt, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expiry — the peer stalled mid-frame.
        throw WireTimeout("receive timed out mid-frame");
      }
      if (errno == ECONNRESET) {
        throw WireDisconnect("peer gone: connection reset");
      }
      throw_errno("recv");
    }
    if (n == 0) {
      if (got == 0) return false;
      throw WireError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Applies SO_RCVTIMEO/SO_SNDTIMEO; ms < 0 leaves the socket blocking.
void apply_io_timeout(int fd, int ms) noexcept {
  timeval tv{};
  if (ms >= 0) {
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  }
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Connection::~Connection() { close(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      idle_timeout_ms_(std::exchange(other.idle_timeout_ms_, -1)) {}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    idle_timeout_ms_ = std::exchange(other.idle_timeout_ms_, -1);
  }
  return *this;
}

void Connection::set_timeouts(int idle_ms, int io_ms) noexcept {
  idle_timeout_ms_ = idle_ms;
  if (fd_ >= 0) apply_io_timeout(fd_, io_ms);
}

Connection Connection::connect(const std::string& address) {
  const ParsedAddress parsed = parse_address(address);
  if (parsed.is_unix) {
    // SOCK_CLOEXEC everywhere a service fd is born: a fork/exec from a
    // progress callback or signal handler must not inherit connections.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket(unix)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, parsed.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      throw_errno("connect " + address);
    }
    return Connection(fd);
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(parsed.host.c_str(),
                               std::to_string(parsed.port).c_str(), &hints,
                               &results);
  if (rc != 0) {
    throw WireError("resolve " + parsed.host + ": " + gai_strerror(rc));
  }
  int fd = -1;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) throw WireError("cannot connect to " + address);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Connection(fd);
}

bool Connection::read_frame(Frame& frame) {
  if (idle_timeout_ms_ >= 0) {
    // Bound the wait for the next frame to START; once bytes flow, the
    // per-recv SO_RCVTIMEO takes over. poll() rather than the socket
    // timeout so "peer idle between requests" and "peer stalled mid-frame"
    // stay separately tunable.
    pollfd p{};
    p.fd = fd_;
    p.events = POLLIN;
    int rc;
    do {
      rc = ::poll(&p, 1, idle_timeout_ms_);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) throw_errno("poll");
    if (rc == 0) {
      throw WireTimeout("idle timeout: no frame started within " +
                        std::to_string(idle_timeout_ms_) + "ms");
    }
  }
  std::uint8_t header[5];
  if (!read_exact(fd_, header, 4)) return false;  // clean EOF
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    throw WireError("frame of " + std::to_string(len) + " bytes exceeds cap");
  }
  if (!read_exact(fd_, header + 4, 1)) {
    throw WireError("connection closed mid-frame");
  }
  frame.type = static_cast<FrameType>(header[4]);
  frame.payload.resize(len);
  if (len > 0 && !read_exact(fd_, frame.payload.data(), len)) {
    throw WireError("connection closed mid-frame");
  }
  return true;
}

void Connection::write_frame(FrameType type,
                             const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw WireError("frame payload exceeds cap");
  }
  std::uint8_t header[5];
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>((len >> (8 * i)) & 0xffu);
  }
  header[4] = static_cast<std::uint8_t>(type);
  write_all(fd_, header, 5);
  if (!payload.empty()) write_all(fd_, payload.data(), payload.size());
}

void Connection::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Connection::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      address_(std::move(other.address_)),
      unix_path_(std::move(other.unix_path_)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    address_ = std::move(other.address_);
    unix_path_ = std::move(other.unix_path_);
  }
  return *this;
}

Listener Listener::listen(const std::string& address) {
  const ParsedAddress parsed = parse_address(address);
  Listener listener;
  if (parsed.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket(unix)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, parsed.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(parsed.path.c_str());  // stale socket from a dead process
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      throw_errno("bind " + address);
    }
    if (::listen(fd, 64) < 0) {
      ::close(fd);
      throw_errno("listen " + address);
    }
    listener.fd_ = fd;
    listener.address_ = address;
    listener.unix_path_ = parsed.path;
    return listener;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(tcp)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(parsed.port);
  if (parsed.host == "*" || parsed.host == "0.0.0.0") {
    addr.sin_addr.s_addr = INADDR_ANY;
  } else if (::inet_pton(AF_INET, parsed.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw WireError("listen host must be an IPv4 literal or *, got " +
                    parsed.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("bind " + address);
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    throw_errno("listen " + address);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  listener.fd_ = fd;
  listener.address_ =
      "tcp:" + parsed.host + ":" + std::to_string(ntohs(bound.sin_port));
  return listener;
}

Connection Listener::accept() {
  while (true) {
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Connection(fd);
    }
    if (errno == EINTR) continue;
    return Connection();  // listener closed (EBADF/EINVAL) — shutdown path
  }
}

void Listener::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

}  // namespace picasso::service
