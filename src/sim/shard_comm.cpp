#include "sim/shard_comm.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>

#include "support/check.hpp"

namespace mmn::sim::shard_comm {
namespace {

void append_bytes(std::vector<std::uint8_t>& blob, const void* data,
                  std::size_t bytes) {
  if (bytes == 0) return;  // data() of an empty vector may be null
  const std::size_t old = blob.size();
  blob.resize(old + bytes);
  std::memcpy(blob.data() + old, data, bytes);
}

void append_u64(std::vector<std::uint8_t>& blob, std::uint64_t x) {
  append_bytes(blob, &x, sizeof(x));
}

bool in_window(NodeId v, Window w) { return v >= w.first && v < w.second; }

/// Bounds-checked cursor over a received blob.  Every read compares the
/// bytes it wants with the bytes left (cur <= size always holds), so no
/// count can wrap past the end.
struct BlobReader {
  std::span<const std::uint8_t> blob;
  std::size_t cur = 0;

  std::size_t left() const { return blob.size() - cur; }

  const std::uint8_t* take(std::size_t bytes) {
    MMN_REQUIRE(bytes <= left(), "rank exchange blob truncated");
    const std::uint8_t* p = blob.data() + cur;
    cur += bytes;
    return p;
  }

  std::span<const std::uint8_t> sub(std::uint64_t bytes) {
    MMN_REQUIRE(bytes <= left(), "rank exchange blob truncated");
    return {take(static_cast<std::size_t>(bytes)),
            static_cast<std::size_t>(bytes)};
  }

  std::uint64_t read_u64() {
    std::uint64_t x;
    std::memcpy(&x, take(sizeof(x)), sizeof(x));
    return x;
  }

  /// Parses one live-prefix Packet (the first word carries the size field,
  /// so the wire length is self-describing).  The void* casts opt into the
  /// same partial-object copy the staging pools do (stale tail never read).
  void read_packet(Packet& out) {
    MMN_REQUIRE(sizeof(Word) <= left(), "rank exchange blob truncated");
    std::memcpy(static_cast<void*>(&out), blob.data() + cur, sizeof(Word));
    const std::size_t live = out.live_bytes();
    MMN_REQUIRE(live <= sizeof(Packet), "rank exchange packet too long");
    std::memcpy(static_cast<void*>(&out), take(live), live);
  }
};

std::int64_t read_outstanding(BlobReader& in, Window src) {
  const std::uint64_t count = in.read_u64();
  MMN_REQUIRE(count <= src.second - src.first,
              "outstanding count exceeds the sender's window");
  return static_cast<std::int64_t>(count);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  MMN_REQUIRE(flags >= 0, "fcntl(F_GETFL) failed");
  MMN_REQUIRE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              "fcntl(F_SETFL, O_NONBLOCK) failed");
}

/// One rank's view of the socketpair mesh: fd_[p] talks to rank p.
class SocketMesh final : public Transport {
 public:
  SocketMesh(unsigned rank, unsigned ranks, std::vector<int> fds)
      : rank_(rank), ranks_(ranks), fds_(std::move(fds)) {}

  SocketMesh(const SocketMesh&) = delete;
  SocketMesh& operator=(const SocketMesh&) = delete;

  ~SocketMesh() override {
    for (const int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }

  unsigned rank() const override { return rank_; }
  unsigned ranks() const override { return ranks_; }

  void exchange(unsigned peer, const std::uint8_t* data, std::size_t bytes,
                std::vector<std::uint8_t>& in) override {
    MMN_REQUIRE(peer < ranks_ && peer != rank_ && fds_[peer] >= 0,
                "exchange() with an invalid peer rank");
    const int fd = fds_[peer];

    // Outgoing frame: [u64 length][payload].  The length prefix is staged
    // separately so the payload is never copied.
    std::uint64_t out_len = bytes;
    std::size_t sent_hdr = 0;
    std::size_t sent_body = 0;

    // Incoming frame, drained concurrently with the writes so the swap
    // cannot deadlock on full kernel buffers.
    std::uint8_t in_hdr[sizeof(std::uint64_t)];
    std::size_t got_hdr = 0;
    std::uint64_t in_len = 0;
    std::size_t got_body = 0;
    in.clear();

    for (;;) {
      const bool out_done = sent_hdr == sizeof(out_len) && sent_body == bytes;
      const bool in_done =
          got_hdr == sizeof(in_hdr) && got_body == in_len;
      if (out_done && in_done) break;

      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = static_cast<short>((out_done ? 0 : POLLOUT) |
                                      (in_done ? 0 : POLLIN));
      pfd.revents = 0;
      const int rc = ::poll(&pfd, 1, -1);
      if (rc < 0) {
        MMN_REQUIRE(errno == EINTR, "poll() failed during rank exchange");
        continue;
      }
      MMN_REQUIRE((pfd.revents & (POLLERR | POLLNVAL)) == 0,
                  "rank exchange socket error");

      if (!out_done && (pfd.revents & (POLLOUT | POLLHUP)) != 0) {
        if (sent_hdr < sizeof(out_len)) {
          const auto* p = reinterpret_cast<const std::uint8_t*>(&out_len);
          const ssize_t k = ::send(fd, p + sent_hdr, sizeof(out_len) - sent_hdr,
                                   MSG_NOSIGNAL);
          if (k > 0) {
            sent_hdr += static_cast<std::size_t>(k);
            bytes_out_ += static_cast<std::uint64_t>(k);
          } else {
            MMN_REQUIRE(k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                                  errno == EINTR),
                        "send() failed during rank exchange");
          }
        } else if (sent_body < bytes) {
          const ssize_t k =
              ::send(fd, data + sent_body, bytes - sent_body, MSG_NOSIGNAL);
          if (k > 0) {
            sent_body += static_cast<std::size_t>(k);
            bytes_out_ += static_cast<std::uint64_t>(k);
          } else {
            MMN_REQUIRE(k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                                  errno == EINTR),
                        "send() failed during rank exchange");
          }
        }
      }

      if (!in_done && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
        if (got_hdr < sizeof(in_hdr)) {
          const ssize_t k =
              ::recv(fd, in_hdr + got_hdr, sizeof(in_hdr) - got_hdr, 0);
          MMN_REQUIRE(k != 0, "peer rank closed mid-exchange");
          if (k > 0) {
            got_hdr += static_cast<std::size_t>(k);
            bytes_in_ += static_cast<std::uint64_t>(k);
            if (got_hdr == sizeof(in_hdr)) {
              std::memcpy(&in_len, in_hdr, sizeof(in_len));
              in.resize(in_len);
            }
          } else {
            MMN_REQUIRE(errno == EAGAIN || errno == EWOULDBLOCK ||
                            errno == EINTR,
                        "recv() failed during rank exchange");
          }
        } else if (got_body < in_len) {
          const ssize_t k =
              ::recv(fd, in.data() + got_body, in_len - got_body, 0);
          MMN_REQUIRE(k != 0, "peer rank closed mid-exchange");
          if (k > 0) {
            got_body += static_cast<std::size_t>(k);
            bytes_in_ += static_cast<std::uint64_t>(k);
          } else {
            MMN_REQUIRE(errno == EAGAIN || errno == EWOULDBLOCK ||
                            errno == EINTR,
                        "recv() failed during rank exchange");
          }
        }
      }
    }
  }

  std::uint64_t bytes_out() const override { return bytes_out_; }
  std::uint64_t bytes_in() const override { return bytes_in_; }

 private:
  unsigned rank_;
  unsigned ranks_;
  std::vector<int> fds_;  ///< indexed by peer rank; -1 for self
  std::uint64_t bytes_out_ = 0;
  std::uint64_t bytes_in_ = 0;
};

/// ranks == 1: no peers, nothing to fork.
class LoopbackTransport final : public Transport {
 public:
  unsigned rank() const override { return 0; }
  unsigned ranks() const override { return 1; }
  void exchange(unsigned, const std::uint8_t*, std::size_t,
                std::vector<std::uint8_t>&) override {
    MMN_REQUIRE(false, "exchange() on a single-rank transport");
  }
  std::uint64_t bytes_out() const override { return 0; }
  std::uint64_t bytes_in() const override { return 0; }
};

}  // namespace

void run_ranks(unsigned ranks, const std::function<void(Transport&)>& fn) {
  MMN_REQUIRE(ranks >= 1 && ranks <= 64, "ranks must be in [1, 64]");
  if (ranks == 1) {
    LoopbackTransport t;
    fn(t);
    return;
  }

  // Full mesh, built before any fork so every rank inherits its endpoints:
  // pair (i, j), i < j, gets one socketpair; ends[i][j] is i's end.
  std::vector<std::vector<int>> ends(ranks, std::vector<int>(ranks, -1));
  for (unsigned i = 0; i < ranks; ++i) {
    for (unsigned j = i + 1; j < ranks; ++j) {
      int sp[2];
      MMN_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp) == 0,
                  "socketpair() failed building the rank mesh");
      set_nonblocking(sp[0]);
      set_nonblocking(sp[1]);
      ends[i][j] = sp[0];
      ends[j][i] = sp[1];
    }
  }

  unsigned my_rank = 0;
  std::vector<pid_t> children;
  children.reserve(ranks - 1);
  for (unsigned r = 1; r < ranks; ++r) {
    const pid_t pid = ::fork();
    MMN_REQUIRE(pid >= 0, "fork() failed spawning rank");
    if (pid == 0) {
      my_rank = r;
      children.clear();
      break;
    }
    children.push_back(pid);
  }

  // Keep only this rank's endpoints; close the rest of the mesh.
  std::vector<int> fds(ranks, -1);
  for (unsigned i = 0; i < ranks; ++i) {
    for (unsigned j = 0; j < ranks; ++j) {
      if (ends[i][j] < 0) continue;
      if (i == my_rank) {
        fds[j] = ends[i][j];
      } else {
        ::close(ends[i][j]);
      }
    }
  }

  // No child may unwind out of here: it would carry on as a second copy of
  // the caller's program.  Children _exit, skipping atexit/static
  // destructors (they share the parent's stdio and harness state, none of
  // which they own).  The mesh closes first, so peers blocked on a failed
  // rank fail their exchange instead of hanging.
  std::exception_ptr error;
  try {
    SocketMesh mesh(my_rank, ranks, std::move(fds));
    fn(mesh);
  } catch (const std::exception& e) {
    if (my_rank != 0) {
      std::fprintf(stderr, "rank %u: %s\n", my_rank, e.what());
      ::_exit(1);
    }
    error = std::current_exception();
  } catch (...) {
    if (my_rank != 0) ::_exit(1);
    error = std::current_exception();
  }
  if (my_rank != 0) ::_exit(0);

  bool children_ok = true;
  for (const pid_t pid : children) {
    int status = 0;
    pid_t got;
    do {
      got = ::waitpid(pid, &status, 0);
    } while (got < 0 && errno == EINTR);
    children_ok = children_ok && got == pid && WIFEXITED(status) &&
                  WEXITSTATUS(status) == 0;
  }
  if (error) std::rethrow_exception(error);
  MMN_REQUIRE(children_ok, "a child rank exited abnormally");
}

void PeerBatch::pack(const MsgHeader& h, const Packet& payload) {
  if (h.ref != last_src_) {
    last_src_ = h.ref;
    append_bytes(payload_, &payload, payload.live_bytes());
    ++runs_;
  }
  headers_.push_back(MsgHeader{h.to, h.from, h.via, runs_ - 1});
}

void encode_frame(const PeerBatch& batch, std::span<const ChannelWrite> writes,
                  std::int64_t outstanding, std::vector<std::uint8_t>& blob) {
  blob.clear();
  append_u64(blob, batch.headers().size());
  append_bytes(blob, batch.headers().data(),
               batch.headers().size() * sizeof(MsgHeader));
  append_u64(blob, batch.payload().size());
  append_bytes(blob, batch.payload().data(), batch.payload().size());
  append_u64(blob, writes.size());
  for (const ChannelWrite& w : writes) {
    append_bytes(blob, &w.node, sizeof(w.node));
    append_bytes(blob, &w.packet, w.packet.live_bytes());
  }
  append_u64(blob, static_cast<std::uint64_t>(outstanding));
}

std::int64_t decode_frame(std::span<const std::uint8_t> blob, Window src,
                          Window dst, ShardBuffer& ingress,
                          std::vector<ChannelWrite>& writes) {
  BlobReader in{blob};
  const std::uint64_t n_headers = in.read_u64();
  // Compare counts with the bytes left; multiplying first can wrap.
  MMN_REQUIRE(n_headers <= in.left() / sizeof(MsgHeader),
              "rank exchange blob truncated");
  const std::uint8_t* headers = in.take(n_headers * sizeof(MsgHeader));
  const std::uint64_t payload_bytes = in.read_u64();
  BlobReader payload{in.sub(payload_bytes)};
  // Wire refs are run ordinals: a ref change means the next payload in the
  // stream; equal refs share the previously staged slot.
  PacketRef last_wire = static_cast<PacketRef>(-1);
  PacketRef staged = 0;
  Packet pkt;
  for (std::uint64_t i = 0; i < n_headers; ++i) {
    MsgHeader h;
    std::memcpy(&h, headers + i * sizeof(MsgHeader), sizeof(MsgHeader));
    MMN_REQUIRE(in_window(h.to, dst),
                "cross-shard header addressed to a node this rank does not "
                "own");
    MMN_REQUIRE(in_window(h.from, src),
                "cross-shard header from a node the sender does not own");
    if (h.ref != last_wire) {
      MMN_REQUIRE(h.ref == static_cast<PacketRef>(last_wire + 1),
                  "cross-shard payload runs out of order");
      last_wire = h.ref;
      payload.read_packet(pkt);
      staged = ingress.stage_packet(pkt);
    }
    ingress.outbox.push_back(
        MsgHeader{h.to - dst.first, h.from, h.via, staged});
  }
  MMN_REQUIRE(payload.left() == 0, "cross-shard payload bytes left over");

  const std::uint64_t n_writes = in.read_u64();
  MMN_REQUIRE(n_writes <= in.left() / (sizeof(NodeId) + sizeof(Word)),
              "rank exchange blob truncated");
  for (std::uint64_t i = 0; i < n_writes; ++i) {
    ChannelWrite w;
    std::memcpy(&w.node, in.take(sizeof(w.node)), sizeof(w.node));
    MMN_REQUIRE(in_window(w.node, src),
                "channel write from a node the sender does not own");
    in.read_packet(w.packet);
    writes.push_back(w);
  }
  const std::int64_t outstanding = read_outstanding(in, src);
  MMN_REQUIRE(in.left() == 0, "rank exchange blob has trailing bytes");
  return outstanding;
}

void encode_count(std::int64_t outstanding, std::vector<std::uint8_t>& blob) {
  blob.clear();
  append_u64(blob, static_cast<std::uint64_t>(outstanding));
}

std::int64_t decode_count(std::span<const std::uint8_t> blob, Window src) {
  BlobReader in{blob};
  const std::int64_t outstanding = read_outstanding(in, src);
  MMN_REQUIRE(in.left() == 0, "rank exchange blob has trailing bytes");
  return outstanding;
}

}  // namespace mmn::sim::shard_comm
