// Zero-downtime restart handoff channel: a unix-domain stream socket over
// which an old server generation passes its bound listener descriptors
// (SCM_RIGHTS) and its final checkpoint blob to the freshly exec'd next
// generation. Envoy-style hot-restart plumbing, scoped to what qserv
// needs.
//
// Wire protocol `qsrv-hand-v1` (all integers little-endian, matching the
// bytestream convention everywhere else in the tree):
//
//   child -> parent   HELLO   "qsrvhand" u32 version  u32 generation
//   parent -> child   PACKAGE u32 n_fds  u16 port[n_fds]   (SCM_RIGHTS
//                     carries the n_fds descriptors on this message)
//                     u64 ckpt_len  u8 ckpt[ckpt_len]
//   child -> parent   READY   u8 0x52 ('R')
//
// Sequencing: the parent creates the listening endpoint *before* exec'ing
// the child, so the child's connect cannot race the bind. The parent
// sends PACKAGE only after draining + quiescing, i.e. the blob is the
// authoritative final state. The child answers READY only after it has
// adopted the descriptors, restored, and started serving — the parent's
// cue that exiting is safe. Every call takes a deadline; timeouts return
// false so both sides can fall back (parent: resume serving from its own
// checkpoint; child: exit and leave the old generation in charge).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace qserv::net {

struct HandoffPackage {
  std::vector<std::pair<uint16_t, int>> sockets;  // (port, fd)
  std::vector<uint8_t> checkpoint;                // qserv-ckpt-v2 blob
};

// Old generation's side: owns the unix-socket path.
class HandoffServer {
 public:
  // Binds and listens on `path` (unlinking any stale socket first).
  explicit HandoffServer(const std::string& path);
  ~HandoffServer();

  bool valid() const { return listen_fd_ >= 0; }

  // Accepts the child and validates its HELLO; false on timeout or a
  // protocol mismatch (wrong magic/version).
  bool accept_child(int timeout_ms, uint32_t* generation_out = nullptr);

  // Sends descriptors + checkpoint. accept_child must have succeeded.
  bool send_package(const HandoffPackage& pkg);

  // Blocks for the child's READY byte.
  bool wait_ready(int timeout_ms);

 private:
  std::string path_;
  int listen_fd_ = -1;
  int conn_fd_ = -1;
};

// New generation's side.
class HandoffClient {
 public:
  ~HandoffClient();

  // Connects to `path` (retrying until the deadline — covers the narrow
  // window before the parent's accept loop is up) and sends HELLO.
  bool connect_to(const std::string& path, uint32_t generation,
                  int timeout_ms);

  // Receives the PACKAGE. On success the caller owns the descriptors in
  // pkg.sockets (typically moved straight into
  // RealUdpTransport::Config::adopted_fds).
  bool recv_package(HandoffPackage& pkg, int timeout_ms);

  bool send_ready();

 private:
  int fd_ = -1;
};

}  // namespace qserv::net
