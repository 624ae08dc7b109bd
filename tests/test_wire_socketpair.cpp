// Wire-framing robustness on a socketpair: frames delivered byte-at-a-time
// must reassemble, EINTR during a blocking read must be retried, injected
// short writes must still deliver whole frames (a frame leaves as one
// sendmsg of header and payload, resumed wherever a clamp cut it), a peer
// that hangs up inside a header is a torn frame, and the idle/io timeouts
// must throw WireTimeout instead of hanging the reader.

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "service/wire.hpp"
#include "util/failpoint.hpp"

namespace psvc = picasso::service;
namespace pfp = picasso::util::failpoints;

namespace {

/// Raw length-prefixed frame bytes, as Connection::write_frame lays them out.
std::vector<std::uint8_t> raw_frame(psvc::FrameType type,
                                    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> bytes;
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<std::uint8_t>((len >> shift) & 0xffu));
  }
  bytes.push_back(static_cast<std::uint8_t>(type));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0) {
      a = sv[0];
      b = sv[1];
    }
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  /// Hands fd `a` to a Connection (which then owns and closes it).
  psvc::Connection take_a() {
    psvc::Connection conn(a);
    a = -1;
    return conn;
  }
};

void sigusr1_noop(int) {}

class WireSocketpairTest : public ::testing::Test {
 protected:
  void SetUp() override { pfp::disarm_all(); }
  void TearDown() override { pfp::disarm_all(); }
};

}  // namespace

TEST_F(WireSocketpairTest, ByteAtATimeFramesReassemble) {
  SocketPair pair;
  ASSERT_GE(pair.b, 0);
  psvc::Connection reader = pair.take_a();

  std::vector<std::uint8_t> payload(257);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  const auto bytes = raw_frame(psvc::FrameType::Progress, payload);

  std::thread feeder([&] {
    // Two frames delivered one byte at a time, then a clean close: the
    // reader must see exactly two intact frames and then EOF.
    for (int rep = 0; rep < 2; ++rep) {
      for (const std::uint8_t byte : bytes) {
        ASSERT_EQ(::send(pair.b, &byte, 1, 0), 1);
        if (rep == 0 && (byte % 64) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    }
    ::shutdown(pair.b, SHUT_WR);
  });

  psvc::Frame frame;
  for (int rep = 0; rep < 2; ++rep) {
    ASSERT_TRUE(reader.read_frame(frame)) << "frame " << rep;
    EXPECT_EQ(frame.type, psvc::FrameType::Progress);
    EXPECT_EQ(frame.payload, payload);
  }
  EXPECT_FALSE(reader.read_frame(frame)) << "expected clean EOF";
  feeder.join();
}

TEST_F(WireSocketpairTest, EintrDuringBlockingReadIsRetried) {
  // A no-SA_RESTART handler makes recv() actually return EINTR.
  struct sigaction action {};
  struct sigaction saved {};
  action.sa_handler = sigusr1_noop;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &saved), 0);

  SocketPair pair;
  ASSERT_GE(pair.b, 0);
  psvc::Connection reader = pair.take_a();

  std::vector<std::uint8_t> payload(4096, 0xab);
  const auto bytes = raw_frame(psvc::FrameType::Result, payload);

  std::atomic<bool> done{false};
  psvc::Frame frame;
  bool got = false;
  std::thread reading([&] {
    got = reader.read_frame(frame);
    done.store(true, std::memory_order_release);
  });
  const pthread_t handle = reading.native_handle();

  // Pepper the blocked reader with signals while feeding the frame slowly:
  // every recv is interruptible, none of the interruptions may be lost as
  // data or surfaced as an error.
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    pthread_kill(handle, SIGUSR1);
    const std::size_t n = std::min<std::size_t>(128, bytes.size() - sent);
    ASSERT_EQ(::send(pair.b, bytes.data() + sent, n, 0),
              static_cast<ssize_t>(n));
    sent += n;
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  while (!done.load(std::memory_order_acquire)) {
    pthread_kill(handle, SIGUSR1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  reading.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &saved, nullptr), 0);

  ASSERT_TRUE(got);
  EXPECT_EQ(frame.type, psvc::FrameType::Result);
  EXPECT_EQ(frame.payload, payload);
}

TEST_F(WireSocketpairTest, InjectedShortWritesStillDeliverWholeFrames) {
  SocketPair pair;
  ASSERT_GE(pair.b, 0);
  psvc::Connection writer = pair.take_a();
  psvc::Connection reader(pair.b);
  pair.b = -1;

  std::vector<std::uint8_t> payload(1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }

  // Clamp every send to 3 bytes: write_all must loop until the frame is
  // fully on the wire.
  pfp::arm("wire.send", {pfp::Mode::ShortIo, 3, -1});
  std::thread writing(
      [&] { writer.write_frame(psvc::FrameType::Result, payload); });

  psvc::Frame frame;
  ASSERT_TRUE(reader.read_frame(frame));
  writing.join();
  pfp::disarm_all();
  EXPECT_EQ(frame.type, psvc::FrameType::Result);
  EXPECT_EQ(frame.payload, payload);
}

TEST_F(WireSocketpairTest, ByteClampedSendsStillDeliverWholeFrames) {
  SocketPair pair;
  ASSERT_GE(pair.b, 0);
  psvc::Connection writer = pair.take_a();
  psvc::Connection reader(pair.b);
  pair.b = -1;

  std::vector<std::uint8_t> payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 5 + 1);
  }

  // One byte per sendmsg: every resume point inside the header, at the
  // header/payload seam and inside the payload is taken once.
  pfp::arm("wire.send", {pfp::Mode::ShortIo, 1, -1});
  std::thread writing([&] {
    writer.write_frame(psvc::FrameType::Result, payload);
    writer.write_frame(psvc::FrameType::Stats, {});
  });

  psvc::Frame frame;
  ASSERT_TRUE(reader.read_frame(frame));
  EXPECT_EQ(frame.type, psvc::FrameType::Result);
  EXPECT_EQ(frame.payload, payload);
  ASSERT_TRUE(reader.read_frame(frame));
  EXPECT_EQ(frame.type, psvc::FrameType::Stats);
  EXPECT_TRUE(frame.payload.empty());
  writing.join();
}

TEST_F(WireSocketpairTest, InjectedSendFaultAndDelayKeepFramesWhole) {
  SocketPair pair;
  ASSERT_GE(pair.b, 0);
  psvc::Connection writer = pair.take_a();
  psvc::Connection reader(pair.b);
  pair.b = -1;
  const std::vector<std::uint8_t> first = {1, 2, 3};
  const std::vector<std::uint8_t> second = {4, 5};

  // An injected fault fails the frame before a byte of it is sent ...
  pfp::arm("wire.send", {pfp::Mode::Error, 0, 1});
  EXPECT_THROW(writer.write_frame(psvc::FrameType::Progress, first),
               psvc::WireError);
  // ... and a delay only holds the frame back.
  pfp::arm("wire.send", {pfp::Mode::Delay, 30, 1});
  const auto start = std::chrono::steady_clock::now();
  writer.write_frame(psvc::FrameType::Progress, second);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(30));

  psvc::Frame frame;
  ASSERT_TRUE(reader.read_frame(frame));
  EXPECT_EQ(frame.payload, second);
}

TEST_F(WireSocketpairTest, CloseInsideTheHeaderIsATornFrame) {
  const auto bytes = raw_frame(psvc::FrameType::Progress, {9, 8, 7});
  // 0 bytes: a clean close at a frame boundary. 1-4: the peer hung up
  // inside the 5-byte header; 5: after the header, before the payload.
  for (std::size_t cut = 0; cut <= 5; ++cut) {
    SocketPair pair;
    ASSERT_GE(pair.b, 0);
    psvc::Connection reader = pair.take_a();
    if (cut > 0) {
      ASSERT_EQ(::send(pair.b, bytes.data(), cut, 0),
                static_cast<ssize_t>(cut));
    }
    ::shutdown(pair.b, SHUT_WR);
    psvc::Frame frame;
    if (cut == 0) {
      EXPECT_FALSE(reader.read_frame(frame)) << "expected clean EOF";
    } else {
      EXPECT_THROW(reader.read_frame(frame), psvc::WireError)
          << "cut after " << cut << " bytes";
    }
  }
}

TEST_F(WireSocketpairTest, InjectedRecvFaultSurfacesAsWireError) {
  SocketPair pair;
  ASSERT_GE(pair.b, 0);
  psvc::Connection reader = pair.take_a();

  const auto bytes = raw_frame(psvc::FrameType::Progress, {1, 2, 3});
  ASSERT_EQ(::send(pair.b, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));

  pfp::arm("wire.recv", {pfp::Mode::Error, 0, 1});
  psvc::Frame frame;
  EXPECT_THROW(reader.read_frame(frame), psvc::WireError);
}

TEST_F(WireSocketpairTest, IdleTimeoutThrowsWireTimeoutNotHang) {
  SocketPair pair;
  ASSERT_GE(pair.b, 0);
  psvc::Connection reader = pair.take_a();
  reader.set_timeouts(/*idle_ms=*/60, /*io_ms=*/-1);

  psvc::Frame frame;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(reader.read_frame(frame), psvc::WireTimeout);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST_F(WireSocketpairTest, MidFrameStallTripsIoTimeout) {
  SocketPair pair;
  ASSERT_GE(pair.b, 0);
  psvc::Connection reader = pair.take_a();
  reader.set_timeouts(/*idle_ms=*/-1, /*io_ms=*/60);

  // Two bytes of length prefix, then silence: the io timeout must abort
  // the half-read frame instead of blocking forever.
  const std::uint8_t half[2] = {0x10, 0x00};
  ASSERT_EQ(::send(pair.b, half, sizeof(half), 0),
            static_cast<ssize_t>(sizeof(half)));
  psvc::Frame frame;
  EXPECT_THROW(reader.read_frame(frame), psvc::WireTimeout);
}
