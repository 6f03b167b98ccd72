// Crash-recovery knobs, nested into ServerConfig as `recovery`. Off by
// default: the seed server's behavior (and cost profile) is unchanged
// unless a harness opts in.
#pragma once

#include <cstdint>
#include <string>

namespace qserv::recovery {

struct Config {
  // Master switch: journal inbound traffic, record per-frame digests and
  // take periodic checkpoints. Everything below is inert when false.
  bool enabled = false;

  // Frames between checkpoints (0 = never automatically; a black-box dump
  // still captures one on demand). The journal ring must span at least
  // one interval for replay verification to find a usable anchor.
  uint32_t checkpoint_interval = 64;

  // Ring bound on retained per-frame journals ("the last N frames of
  // input are always in memory").
  uint32_t journal_frames = 2048;

  // Record a 32-bit hash per entity each frame in addition to the frame
  // digest, so divergence reports name the first offending entity. The
  // hash falls out of the frame digest's single pass, so the CPU cost is
  // near zero; the memory cost is 8 bytes/entity/frame of journal ring.
  bool per_entity_digests = true;

  // Where black-box dumps land; "" = current directory.
  std::string dump_dir;

  bool dump_on_invariant_violation = true;
  bool dump_on_stall = true;
  // Installs a process-global fatal-signal handler (SIGSEGV/SIGABRT/...)
  // that writes the latest pre-encoded checkpoint with async-signal-safe
  // calls only. Best-effort by nature; off in tests.
  bool install_signal_handler = false;

  // Cap on remembered ports of evicted clients, so a warm-restarted
  // server can answer their moves with kEvicted instead of silence.
  uint32_t remembered_evictions = 1024;
};

}  // namespace qserv::recovery
