// Deterministic replay: restore a checkpoint into a fresh World and
// re-execute the journal's state-change records — world-phase ticks, move
// commands, lifecycle operations — in serialization-index order, checking
// the world digest after every frame against the digest recorded
// live. The first mismatching frame (and, with per-entity digests, the
// first mismatching entity) is reported.
//
// This is pure re-execution over recorded inputs, not a re-run of the
// concurrent server: frame formation, thread interleaving and drop
// decisions are timing-dependent and are taken from the journal, while
// everything that mutates the world is re-derived. The determinism
// preconditions this rests on are documented in DESIGN.md §9.
#pragma once

#include <string>

#include "src/recovery/checkpoint.hpp"
#include "src/recovery/journal.hpp"

namespace qserv::recovery {

struct ReplayResult {
  bool ok = false;       // ran to the end with every digest matching
  std::string error;     // setup failure (bad map, journal gap, ...)
  uint64_t start_frame = 0;
  uint64_t frames_checked = 0;
  uint64_t moves_applied = 0;
  uint64_t lifecycle_applied = 0;

  bool diverged = false;
  uint64_t divergent_frame = 0;
  uint32_t divergent_entity = 0;  // 0 = not attributed
  uint64_t want_digest = 0;       // recorded live
  uint64_t got_digest = 0;        // recomputed by replay
  std::string detail;

  std::string summary() const;
};

// Replays `journal` frames following `ckpt.frame`. The journal may reach
// further back than the checkpoint (ring longer than the checkpoint
// interval); earlier frames are skipped. A gap — the ring no longer
// containing ckpt.frame+1 — is a setup error, not a divergence.
ReplayResult replay_verify(const CheckpointData& ckpt,
                           const JournalFile& journal);

// Convenience for harnesses and tests: verifies a live server's latest
// checkpoint against its in-memory ring.
ReplayResult verify_recorded(const CheckpointManager& checkpoints,
                             const FlightRecorder& recorder);

}  // namespace qserv::recovery
