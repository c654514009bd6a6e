// Protocol-conformance suite for util/ipc_channel — the framing layer
// under the persistent-worker command protocol and the distributed
// worker-agent transport. The contract under test: every malformed input
// (truncated frame, oversized length prefix, bad magic, EOF mid-frame,
// arbitrary garbage) produces a *typed* IpcError, and no input —
// malformed or enormous — can make recv() hang, over-read, or allocate
// from an untrusted length. Since the distributed mode, the whole
// conformance suite (fuzz loops included) runs over THREE transports —
// pipe, AF_UNIX socketpair and loopback TCP — because the byte-stream
// pathologies differ: pipes never EAGAIN a blocking writer, sockets
// apply backpressure, TCP adds connect/accept and RST-on-close
// semantics. Run under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "profiles/profile.h"
#include "profiles/profile_delta.h"
#include "profiles/profile_store.h"
#include "util/ipc_channel.h"
#include "util/rng.h"

namespace knnpc {
namespace {

std::vector<std::byte> bytes_of(const std::string& text) {
  const auto bytes = std::as_bytes(std::span<const char>(text));
  return {bytes.begin(), bytes.end()};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The byte streams the channel must behave identically over.
enum class Transport { Pipe, SocketPair, Tcp };

const char* transport_name(Transport t) {
  switch (t) {
    case Transport::Pipe:
      return "Pipe";
    case Transport::SocketPair:
      return "SocketPair";
    case Transport::Tcp:
      return "Tcp";
  }
  return "?";
}

/// Both ends of a connected channel inside one process, built over the
/// parameterised transport. `a` is the "driver" end, `b` the "worker"
/// end; over TCP, `a` is the connecting side and `b` the accepted side.
struct Loopback {
  IpcChannel a;
  IpcChannel b;
  IpcListener listener;  // kept alive only for the Tcp transport

  explicit Loopback(Transport transport,
                    std::uint32_t max_frame_bytes =
                        IpcChannel::kDefaultMaxFrameBytes) {
    switch (transport) {
      case Transport::Pipe: {
        IpcChannelPair pair = make_ipc_channel_pair(max_frame_bytes);
        a = std::move(pair.parent);
        b = IpcChannel(pair.child_read_fd, pair.child_write_fd,
                       max_frame_bytes);
        break;
      }
      case Transport::SocketPair: {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0, fds) != 0) {
          ADD_FAILURE() << "socketpair failed";
          return;
        }
        a = IpcChannel(fds[0], fds[0], max_frame_bytes);
        b = IpcChannel(fds[1], fds[1], max_frame_bytes);
        break;
      }
      case Transport::Tcp: {
        listener = IpcListener("127.0.0.1", 0, max_frame_bytes);
        a = IpcChannel::connect_tcp("127.0.0.1", listener.port(), 5.0,
                                    max_frame_bytes);
        b = listener.accept(5.0);
        break;
      }
    }
  }
};

/// A raw byte stream whose far end is owned by an IpcChannel and whose
/// near end stays a raw fd, so tests can feed the decoder arbitrary
/// bytes over every transport.
struct RawFeed {
  IpcChannel channel;
  IpcListener listener;  // Tcp only
  int write_fd = -1;

  explicit RawFeed(Transport transport,
                   std::uint32_t max_frame_bytes =
                       IpcChannel::kDefaultMaxFrameBytes) {
    switch (transport) {
      case Transport::Pipe: {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0) {
          ADD_FAILURE() << "pipe2 failed";
          return;
        }
        channel = IpcChannel(fds[0], -1, max_frame_bytes);
        write_fd = fds[1];
        break;
      }
      case Transport::SocketPair: {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
          ADD_FAILURE() << "socketpair failed";
          return;
        }
        channel = IpcChannel(fds[0], fds[0], max_frame_bytes);
        write_fd = fds[1];
        break;
      }
      case Transport::Tcp: {
        listener = IpcListener("127.0.0.1", 0, max_frame_bytes);
        write_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (write_fd < 0) {
          ADD_FAILURE() << "socket failed";
          return;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(listener.port());
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(write_fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
          ADD_FAILURE() << "loopback connect failed";
          return;
        }
        channel = listener.accept(5.0);
        break;
      }
    }
  }
  ~RawFeed() { close_write(); }

  void feed(const void* data, std::size_t size) {
    const char* cursor = static_cast<const char*>(data);
    std::size_t left = size;
    while (left > 0) {
      const ssize_t n = ::write(write_fd, cursor, left);
      ASSERT_GT(n, 0) << "raw feed write failed";
      cursor += n;
      left -= static_cast<std::size_t>(n);
    }
  }
  void close_write() {
    if (write_fd >= 0) {
      ::close(write_fd);
      write_fd = -1;
    }
  }
};

IpcErrorKind recv_error_kind(IpcChannel& channel, double timeout_s = 2.0) {
  try {
    (void)channel.recv(timeout_s);
  } catch (const IpcError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "recv unexpectedly produced a frame";
  return IpcErrorKind::SysError;
}

// The wire header recv() expects (kept in sync with ipc_channel.cpp by
// the round-trip tests, not by sharing code — this suite is the second
// implementation that keeps the first honest).
struct WireHeader {
  std::uint32_t magic = 0x4350494bu;  // "KIPC"
  std::uint32_t type = 0;
  std::uint32_t length = 0;
};

/// The conformance suite proper: every test runs once per transport.
class IpcChannelTransportTest : public ::testing::TestWithParam<Transport> {};

INSTANTIATE_TEST_SUITE_P(
    AllTransports, IpcChannelTransportTest,
    ::testing::Values(Transport::Pipe, Transport::SocketPair, Transport::Tcp),
    [](const ::testing::TestParamInfo<Transport>& info) {
      return transport_name(info.param);
    });

// ----------------------------------------------------------- round trips --

TEST_P(IpcChannelTransportTest, RoundTripsFramesBothDirections) {
  Loopback loop(GetParam());
  loop.a.send(7, bytes_of("hello"));
  loop.a.send(8, bytes_of(""));
  const IpcFrame first = loop.b.recv(2.0);
  EXPECT_EQ(first.type, 7u);
  EXPECT_EQ(first.payload, bytes_of("hello"));
  const IpcFrame second = loop.b.recv(2.0);
  EXPECT_EQ(second.type, 8u);
  EXPECT_TRUE(second.payload.empty());

  loop.b.send(9, bytes_of("reply"));
  const IpcFrame third = loop.a.recv(2.0);
  EXPECT_EQ(third.type, 9u);
  EXPECT_EQ(third.payload, bytes_of("reply"));
}

TEST_P(IpcChannelTransportTest, LargePayloadCrossesKernelBufferBoundaries) {
  // A payload far beyond any kernel buffer forces both sides through
  // their short-read/short-write loops: the sender stalls until the
  // receiver drains (a blocking write on a pipe, EAGAIN + writability
  // poll on a socket), so the transfer interleaves many partial
  // syscalls on each side.
  Loopback loop(GetParam());
  std::vector<std::byte> big(3u << 20);
  Rng rng(7);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(rng.next() & 0xff);
  }
  std::thread sender([&] { loop.a.send(42, big, 30.0); });
  const IpcFrame frame = loop.b.recv(30.0);
  sender.join();
  EXPECT_EQ(frame.type, 42u);
  EXPECT_EQ(frame.payload, big);
}

TEST_P(IpcChannelTransportTest, GatherSendArrivesAsOneConcatenatedFrame) {
  // The shard driver forwards spool bytes it holds in other frames this
  // way: the receiver must see exactly one frame whose payload is the
  // parts in order, empty parts included.
  Loopback loop(GetParam());
  const std::vector<std::byte> head = bytes_of("head-");
  const std::vector<std::byte> empty;
  std::vector<std::byte> body(256u << 10);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::byte>(i * 31);
  }
  const std::span<const std::byte> parts[] = {head, empty, body, head};
  std::thread sender([&] { loop.a.send_gather(11, parts, 30.0); });
  const IpcFrame frame = loop.b.recv(30.0);
  sender.join();
  std::vector<std::byte> expected = head;
  expected.insert(expected.end(), body.begin(), body.end());
  expected.insert(expected.end(), head.begin(), head.end());
  EXPECT_EQ(frame.type, 11u);
  EXPECT_EQ(frame.payload, expected);

  // The frame bound applies to the total, not to each part.
  Loopback bounded(GetParam(), /*max_frame_bytes=*/8);
  const std::span<const std::byte> over[] = {head, head};
  EXPECT_THROW(bounded.a.send_gather(12, over), IpcError);
}

TEST_P(IpcChannelTransportTest, BufferedFrameIsDrainedEvenAtAnExpiredDeadline) {
  // A reply that arrived in time must not be reported as a timeout just
  // because the caller shows up at (or past) its deadline: recv(0)
  // means "poll once", and the poll sees the buffered bytes.
  Loopback loop(GetParam());
  loop.a.send(5, bytes_of("already here"));
  const IpcFrame frame = loop.b.recv(0.0);
  EXPECT_EQ(frame.type, 5u);
  EXPECT_EQ(frame.payload, bytes_of("already here"));
}

TEST_P(IpcChannelTransportTest, ZeroTimeoutPollsOnceThenTimesOut) {
  // The other half of the `timeout_s == 0` contract: with nothing
  // buffered, recv(0) throws Timeout after exactly one poll — it must
  // not block, and it must not degenerate into "wait forever" (the old
  // `<= 0` convention this replaced).
  Loopback loop(GetParam());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(recv_error_kind(loop.a, /*timeout_s=*/0.0),
            IpcErrorKind::Timeout);
  EXPECT_LT(seconds_since(start), 1.0) << "recv(0) blocked instead of polling";
}

// --------------------------------------------------------- typed failures --

TEST_P(IpcChannelTransportTest, CleanEofBetweenFramesIsTypedEof) {
  RawFeed feed(GetParam());
  feed.close_write();
  EXPECT_EQ(recv_error_kind(feed.channel), IpcErrorKind::Eof);
}

TEST_P(IpcChannelTransportTest, EofMidHeaderIsTruncatedFrame) {
  RawFeed feed(GetParam());
  const char partial[5] = {'K', 'I', 'P', 'C', 1};
  feed.feed(partial, sizeof(partial));
  feed.close_write();
  EXPECT_EQ(recv_error_kind(feed.channel), IpcErrorKind::TruncatedFrame);
}

TEST_P(IpcChannelTransportTest, EofMidPayloadIsTruncatedFrame) {
  RawFeed feed(GetParam());
  WireHeader header;
  header.type = 3;
  header.length = 100;
  feed.feed(&header, sizeof(header));
  feed.feed("only ten b", 10);
  feed.close_write();
  EXPECT_EQ(recv_error_kind(feed.channel), IpcErrorKind::TruncatedFrame);
}

TEST_P(IpcChannelTransportTest, WrongMagicIsBadMagic) {
  RawFeed feed(GetParam());
  WireHeader header;
  header.magic = 0xdeadbeefu;
  feed.feed(&header, sizeof(header));
  feed.close_write();
  EXPECT_EQ(recv_error_kind(feed.channel), IpcErrorKind::BadMagic);
}

TEST_P(IpcChannelTransportTest,
       OversizedLengthPrefixIsRejectedBeforeAllocation) {
  // The bound must trip on the 4-byte prefix alone — no payload bytes
  // exist, so surviving this test means recv() never tried to read (or
  // allocate) the claimed 3 GiB. The message must carry everything a
  // remote-link operator needs: the frame type, the observed length and
  // the channel's bound.
  RawFeed feed(GetParam(), /*max_frame_bytes=*/1024);
  WireHeader header;
  header.type = 3;
  header.length = 3u << 30;
  feed.feed(&header, sizeof(header));
  try {
    (void)feed.channel.recv(2.0);
    FAIL() << "expected OversizedFrame";
  } catch (const IpcError& e) {
    EXPECT_EQ(e.kind(), IpcErrorKind::OversizedFrame);
    const std::string what = e.what();
    EXPECT_NE(what.find("frame type 3"), std::string::npos) << what;
    EXPECT_NE(what.find("claims 3221225472 bytes"), std::string::npos)
        << what;
    EXPECT_NE(what.find("(max 1024 bytes)"), std::string::npos) << what;
  }
}

TEST_P(IpcChannelTransportTest, SendRefusesPayloadsOverTheBound) {
  Loopback loop(GetParam(), /*max_frame_bytes=*/64);
  try {
    loop.a.send(7, std::vector<std::byte>(65));
    FAIL() << "expected OversizedFrame";
  } catch (const IpcError& e) {
    EXPECT_EQ(e.kind(), IpcErrorKind::OversizedFrame);
    const std::string what = e.what();
    EXPECT_NE(what.find("frame type 7"), std::string::npos) << what;
    EXPECT_NE(what.find("65-byte payload"), std::string::npos) << what;
    EXPECT_NE(what.find("(max 64 bytes)"), std::string::npos) << what;
  }
}

TEST_P(IpcChannelTransportTest, SilentPeerIsTimeoutNotHang) {
  Loopback loop(GetParam());
  EXPECT_EQ(recv_error_kind(loop.a, /*timeout_s=*/0.05),
            IpcErrorKind::Timeout);
}

TEST_P(IpcChannelTransportTest, StalledMidFrameIsTimeoutNotHang) {
  // Header promises 64 bytes, 4 arrive, then silence: the deadline must
  // fire even though the stream is mid-frame and the fd stays open.
  RawFeed feed(GetParam());
  WireHeader header;
  header.length = 64;
  feed.feed(&header, sizeof(header));
  feed.feed("1234", 4);
  EXPECT_EQ(recv_error_kind(feed.channel, 0.05), IpcErrorKind::Timeout);
}

TEST_P(IpcChannelTransportTest, SendToDeadPeerIsSysErrorNotSigpipe) {
  Loopback loop(GetParam());
  loop.b = IpcChannel();  // destroys the peer's fds
  // A pipe fails the first write with EPIPE. TCP may accept a frame or
  // two into the socket buffer before the RST comes back, so keep
  // sending until the failure surfaces — bounded by the loop count, not
  // by hope.
  try {
    for (int i = 0; i < 1000; ++i) {
      loop.a.send(1, bytes_of("anyone there?"), 2.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "expected SysError (EPIPE/ECONNRESET)";
  } catch (const IpcError& e) {
    EXPECT_EQ(e.kind(), IpcErrorKind::SysError);
  }
  // Reaching this line at all proves SIGPIPE did not kill the process.
}

// ------------------------------------------------------------- fuzz loop --

TEST_P(IpcChannelTransportTest, DeterministicGarbageNeverHangsOrEscapesTyped) {
  // 200 deterministic garbage streams. The first byte is forced away
  // from 'K' so no stream can accidentally be a valid frame: every
  // single one must surface as a typed IpcError within its deadline.
  Rng rng(0xf00d);
  for (int round = 0; round < 200; ++round) {
    RawFeed feed(GetParam(), /*max_frame_bytes=*/4096);
    const std::size_t size = 1 + rng.next_below(96);
    std::vector<unsigned char> garbage(size);
    for (auto& b : garbage) b = static_cast<unsigned char>(rng.next());
    garbage[0] |= 0x80;  // never 'K'
    feed.feed(garbage.data(), garbage.size());
    if (rng.next_bool(0.5)) feed.close_write();
    try {
      (void)feed.channel.recv(0.2);
      FAIL() << "garbage round " << round << " parsed as a frame";
    } catch (const IpcError&) {
      // Typed, bounded — exactly the contract.
    }
  }
}

TEST_P(IpcChannelTransportTest, FuzzedHeadersAfterValidMagicStayTyped) {
  // Valid magic, then random type/length and a random tail. Outcomes may
  // legitimately differ (Oversized, Truncated, Timeout, or — when the
  // random length happens to match the tail — a parsed frame), but every
  // round must finish, bounded, without UB.
  Rng rng(0xbeef);
  for (int round = 0; round < 200; ++round) {
    RawFeed feed(GetParam(), /*max_frame_bytes=*/512);
    WireHeader header;
    header.type = static_cast<std::uint32_t>(rng.next());
    header.length = static_cast<std::uint32_t>(rng.next_below(2048));
    feed.feed(&header, sizeof(header));
    const std::size_t tail = rng.next_below(256);
    std::vector<unsigned char> garbage(tail);
    for (auto& b : garbage) b = static_cast<unsigned char>(rng.next());
    if (!garbage.empty()) feed.feed(garbage.data(), garbage.size());
    const bool eof = rng.next_bool(0.5);
    if (eof) feed.close_write();
    try {
      const IpcFrame frame = feed.channel.recv(0.2);
      EXPECT_EQ(frame.type, header.type);
      EXPECT_EQ(frame.payload.size(), header.length);
    } catch (const IpcError& e) {
      if (header.length > 512) {
        EXPECT_EQ(e.kind(), IpcErrorKind::OversizedFrame);
      } else if (eof) {
        EXPECT_EQ(e.kind(), IpcErrorKind::TruncatedFrame);
      } else {
        EXPECT_EQ(e.kind(), IpcErrorKind::Timeout);
      }
    }
  }
}

TEST_P(IpcChannelTransportTest,
       KprdPayloadsSurviveFramingAndCorruptionStaysTyped) {
  // A RUN_ITERATION command's heaviest cargo is a "KPRD" profile delta.
  // The framing layer must carry it byte-exact, and a payload corrupted
  // in flight must surface as a typed error from the KPRD parser (the
  // frame header itself has no payload checksum — the delta formats
  // carry their own).
  Rng rng(0x9a7d);
  std::vector<SparseProfile> profiles(40);
  for (auto& p : profiles) {
    const auto items = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < items; ++i) {
      p.set(static_cast<ItemId>(rng.next_below(64)),
            0.5f + static_cast<float>(rng.next_double()));
    }
  }
  const InMemoryProfileStore store(std::move(profiles));
  const std::vector<std::byte> wire =
      profile_delta_to_bytes(full_profile_delta(store));

  Loopback loop(GetParam());
  loop.a.send(4, wire);
  const IpcFrame frame = loop.b.recv(2.0);
  EXPECT_EQ(frame.type, 4u);
  ASSERT_EQ(frame.payload, wire);
  const ProfileDelta decoded = profile_delta_from_bytes(frame.payload);
  EXPECT_EQ(decoded.rows.size(), 40u);
  EXPECT_EQ(profile_delta_to_bytes(decoded), wire);

  // 50 deterministic single-byte corruptions of the framed payload: the
  // frame still parses (framing is length-based), but the KPRD layer
  // must reject every one — never a silently wrong profile set.
  for (int round = 0; round < 50; ++round) {
    std::vector<std::byte> corrupt = wire;
    corrupt[rng.next_below(corrupt.size())] ^=
        static_cast<std::byte>(1 + rng.next_below(255));
    if (corrupt == wire) continue;  // xor happened to cancel? impossible,
                                    // but keep the loop honest
    loop.a.send(4, corrupt);
    const IpcFrame bad = loop.b.recv(2.0);
    ASSERT_EQ(bad.payload.size(), corrupt.size());
    EXPECT_THROW((void)profile_delta_from_bytes(bad.payload),
                 std::runtime_error)
        << "corruption round " << round << " parsed";
  }
}

// ----------------------------------------------------------- backpressure --

/// A connected AF_UNIX stream pair whose send buffer is clamped tiny, so
/// a handful of frames fills it and every further write EAGAINs — the
/// regression rig for "send() must poll for writability, not busy-spin,
/// and must honour its deadline".
struct TinyBufferPair {
  IpcChannel sender;
  IpcChannel receiver;

  TinyBufferPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                     fds) != 0) {
      ADD_FAILURE() << "socketpair failed";
      return;
    }
    // The kernel doubles and floor-clamps these, but "a few KiB" is all
    // the test needs: far less than the payloads below.
    const int tiny = 4096;
    if (::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)) !=
            0 ||
        ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny)) !=
            0) {
      ADD_FAILURE() << "setsockopt failed";
    }
    sender = IpcChannel(fds[0], fds[0]);
    receiver = IpcChannel(fds[1], fds[1]);
  }
};

TEST(IpcChannelBackpressureTest, SendHonorsDeadlineUnderBackpressure) {
  // Nobody reads: the 1 MiB frame jams after the first few KiB and the
  // socket reports EAGAIN forever. The old write loop busy-spun on that
  // EAGAIN with no way out (this test hung until the ctest timeout
  // killed it); the fixed loop polls for writability and gives up at
  // the deadline with a typed Timeout.
  TinyBufferPair pair;
  const std::vector<std::byte> big(1u << 20);
  const auto start = std::chrono::steady_clock::now();
  try {
    pair.sender.send(1, big, /*timeout_s=*/0.3);
    FAIL() << "expected Timeout — nobody is draining the socket";
  } catch (const IpcError& e) {
    EXPECT_EQ(e.kind(), IpcErrorKind::Timeout);
  }
  const double elapsed = seconds_since(start);
  EXPECT_GE(elapsed, 0.2) << "gave up before the deadline";
  EXPECT_LT(elapsed, 5.0) << "overshot the deadline — spinning, not polling";
}

TEST(IpcChannelBackpressureTest, ZeroTimeoutSendPollsOnceThenTimesOut) {
  // send(..., 0) writes whatever the kernel will take right now and
  // throws Timeout the moment it would have to wait — the send-side
  // mirror of recv's poll-once contract.
  TinyBufferPair pair;
  const std::vector<std::byte> chunk(64u << 10);
  const auto start = std::chrono::steady_clock::now();
  bool timed_out = false;
  for (int i = 0; i < 100 && !timed_out; ++i) {
    try {
      pair.sender.send(1, chunk, /*timeout_s=*/0.0);
    } catch (const IpcError& e) {
      EXPECT_EQ(e.kind(), IpcErrorKind::Timeout);
      timed_out = true;
    }
  }
  EXPECT_TRUE(timed_out) << "a 4 KiB socket absorbed 6 MiB without blocking";
  EXPECT_LT(seconds_since(start), 2.0) << "send(0) blocked instead of polling";
}

TEST(IpcChannelBackpressureTest, BackpressuredSendCompletesOnceDrained) {
  // Same jammed socket, but this time a reader shows up: the poll-driven
  // send must ride the drain to completion well inside its deadline and
  // the frame must arrive byte-exact.
  TinyBufferPair pair;
  std::vector<std::byte> big(1u << 20);
  Rng rng(11);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(rng.next() & 0xff);
  }
  std::thread sender([&] { pair.sender.send(9, big, 30.0); });
  const IpcFrame frame = pair.receiver.recv(30.0);
  sender.join();
  EXPECT_EQ(frame.type, 9u);
  EXPECT_EQ(frame.payload, big);
}

// ------------------------------------------------------------ tcp plumbing --

TEST(IpcChannelTcpTest, ListenerBindsEphemeralPortAndReportsIt) {
  IpcListener listener("127.0.0.1", 0);
  EXPECT_TRUE(listener.valid());
  EXPECT_NE(listener.port(), 0) << "port 0 request must resolve to a real port";
}

TEST(IpcChannelTcpTest, AcceptHonorsTimeoutContract) {
  IpcListener listener("127.0.0.1", 0);
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)listener.accept(/*timeout_s=*/0.0);  // poll once
    FAIL() << "expected Timeout — nobody is connecting";
  } catch (const IpcError& e) {
    EXPECT_EQ(e.kind(), IpcErrorKind::Timeout);
  }
  try {
    (void)listener.accept(/*timeout_s=*/0.05);
    FAIL() << "expected Timeout — nobody is connecting";
  } catch (const IpcError& e) {
    EXPECT_EQ(e.kind(), IpcErrorKind::Timeout);
  }
  EXPECT_LT(seconds_since(start), 2.0);
}

TEST(IpcChannelTcpTest, ConnectToClosedPortIsTypedSysError) {
  // Bind an ephemeral port, then close the listener so the port is
  // known-dead: the kernel answers the connect with RST and the channel
  // must surface ECONNREFUSED as a typed SysError, not a hang.
  std::uint16_t dead_port = 0;
  {
    IpcListener listener("127.0.0.1", 0);
    dead_port = listener.port();
  }
  try {
    (void)IpcChannel::connect_tcp("127.0.0.1", dead_port, 5.0);
    FAIL() << "expected SysError (connection refused)";
  } catch (const IpcError& e) {
    EXPECT_EQ(e.kind(), IpcErrorKind::SysError);
  }
}

TEST(IpcChannelTcpTest, SocketOptionsAppliedOnBothEnds) {
  // The request/reply protocol needs TCP_NODELAY (Nagle + delayed ACK
  // would serialise every round-trip) and SO_KEEPALIVE (a vanished peer
  // must eventually error out, not hang forever); the deadline machinery
  // needs O_NONBLOCK. Both the connecting and the accepted end must get
  // all three.
  Loopback loop(Transport::Tcp);
  for (const int fd : {loop.a.read_fd(), loop.b.read_fd()}) {
    int value = 0;
    socklen_t len = sizeof(value);
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
    EXPECT_NE(value, 0) << "TCP_NODELAY not set on fd " << fd;
    value = 0;
    len = sizeof(value);
    ASSERT_EQ(::getsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &value, &len), 0);
    EXPECT_NE(value, 0) << "SO_KEEPALIVE not set on fd " << fd;
    const int flags = ::fcntl(fd, F_GETFL);
    ASSERT_GE(flags, 0);
    EXPECT_NE(flags & O_NONBLOCK, 0) << "O_NONBLOCK not set on fd " << fd;
  }
}

TEST(IpcChannelTcpTest, SharedFdChannelHalfClosesCleanly) {
  // Both directions of a TCP channel ride one fd: close_write must be a
  // shutdown() the peer sees as clean Eof, while the closer can still
  // receive the peer's remaining frames on the same fd.
  Loopback loop(Transport::Tcp);
  loop.a.close_write();
  EXPECT_EQ(recv_error_kind(loop.b, 2.0), IpcErrorKind::Eof);
  loop.b.send(3, bytes_of("still open the other way"));
  const IpcFrame frame = loop.a.recv(2.0);
  EXPECT_EQ(frame.type, 3u);
  EXPECT_EQ(frame.payload, bytes_of("still open the other way"));
}

TEST(IpcChannelTcpTest, ParseHostPortAcceptsGoodAndRejectsMalformed) {
  const auto [host, port] = parse_host_port("127.0.0.1:7070");
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7070);
  const auto [name_host, name_port] = parse_host_port("worker-3.local:65535");
  EXPECT_EQ(name_host, "worker-3.local");
  EXPECT_EQ(name_port, 65535);
  // IPv6 literals must use the bracket form so the port separator is
  // unambiguous; the brackets are stripped before resolution.
  const auto [v6_host, v6_port] = parse_host_port("[::1]:7070");
  EXPECT_EQ(v6_host, "::1");
  EXPECT_EQ(v6_port, 7070);
  for (const char* bad : {"no-colon", ":7070", "host:", "host:notaport",
                          "host:70999", "host:-1", "",
                          // Bare multi-colon (unbracketed IPv6) and broken
                          // bracket forms are rejected, not misparsed.
                          "::1", "fe80::1:7070", "[::1]", "[::1]:", "[]:7070",
                          "[::1]7070"}) {
    EXPECT_THROW((void)parse_host_port(bad), IpcError) << bad;
  }
}

// --------------------------------------------------------------- plumbing --

TEST(IpcChannelTest, HalfOpenDirectionsFailTyped) {
  RawFeed feed(Transport::Pipe);  // read-only channel
  try {
    feed.channel.send(1, {});
    FAIL() << "expected SysError";
  } catch (const IpcError& e) {
    EXPECT_EQ(e.kind(), IpcErrorKind::SysError);
  }
  IpcChannel write_only(-1, ::dup(STDERR_FILENO));
  try {
    (void)write_only.recv(0.01);
    FAIL() << "expected SysError";
  } catch (const IpcError& e) {
    EXPECT_EQ(e.kind(), IpcErrorKind::SysError);
  }
}

TEST(IpcChannelTest, ErrorKindNamesAreStable) {
  EXPECT_STREQ(ipc_error_kind_name(IpcErrorKind::Eof), "eof");
  EXPECT_STREQ(ipc_error_kind_name(IpcErrorKind::TruncatedFrame),
               "truncated-frame");
  EXPECT_STREQ(ipc_error_kind_name(IpcErrorKind::OversizedFrame),
               "oversized-frame");
  const IpcError error(IpcErrorKind::Timeout, "worker 3");
  EXPECT_NE(std::string(error.what()).find("timeout"), std::string::npos);
}

}  // namespace
}  // namespace knnpc
