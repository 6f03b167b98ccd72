// Reply hot-path allocation discipline (DESIGN.md §15): sealed event
// blocks make the per-frame reply-buffer fan-out a refcount bump instead
// of N event copies, and the arena/scratch reuse keeps the steady-state
// reply phase allocation-free. The recovery seal that runs in the same
// master window (DESIGN.md §9) is held to the same discipline. This binary
// includes the bench allocation counter (global operator new override) so
// the assertions count real heap traffic.
#include <gtest/gtest.h>

#include "bench/alloc_counter.hpp"
#include "src/core/global_state.hpp"
#include "src/harness/experiment.hpp"
#include "src/recovery/checkpoint.hpp"
#include "src/recovery/digest.hpp"
#include "src/recovery/journal.hpp"
#include "src/spatial/map_gen.hpp"

namespace qserv::core {
namespace {

net::GameEvent ev(uint8_t kind) { return net::GameEvent{kind, 0, 0, {}}; }

// Sealed blocks flow through reply buffers by reference, oldest first,
// and null/empty blocks are dropped at the door.
TEST(ReplyAlloc, SealedBlocksDrainInOrder) {
  vt::SimPlatform p;
  GlobalStateBuffer gsb(p);
  ReplyBuffer rb(p);
  p.spawn("t", vt::Domain::kServer, [&] {
    gsb.emit(ev(1));
    gsb.emit(ev(2));
    const SealedEvents block = gsb.seal_frame();
    ASSERT_TRUE(block);
    EXPECT_EQ(block->size(), 2u);
    EXPECT_TRUE(gsb.snapshot().empty());  // live buffer left empty

    rb.append_block(block);
    rb.append({ev(3)});  // element-wise events land after the block
    rb.append_block(nullptr);
    rb.append_block(gsb.seal_frame());  // empty frame: dropped
    EXPECT_EQ(rb.size(), 3u);

    std::vector<net::GameEvent> out;
    rb.drain_into(out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].kind, 1);
    EXPECT_EQ(out[1].kind, 2);
    EXPECT_EQ(out[2].kind, 3);
    EXPECT_EQ(rb.size(), 0u);
  });
  p.run();
}

// Once the pool is warm and every frame's readers let go, sealing and
// fanning out a frame's events performs zero heap allocations.
TEST(ReplyAlloc, SealFrameSteadyStateAllocFree) {
  vt::SimPlatform p;
  GlobalStateBuffer gsb(p);
  ReplyBuffer rb0(p), rb1(p), rb2(p);
  p.spawn("t", vt::Domain::kServer, [&] {
    std::vector<net::GameEvent> drained;
    drained.reserve(64);
    SealedEvents held;  // the reply phase holds the frame's block too
    const auto frame = [&] {
      for (int i = 0; i < 8; ++i) gsb.emit(ev(uint8_t(1 + i)));
      held = gsb.seal_frame();
      rb0.append_block(held);
      rb1.append_block(held);
      rb2.append_block(held);
      drained.clear();
      rb0.drain_into(drained);
      rb1.drain_into(drained);
      rb2.drain_into(drained);
      EXPECT_EQ(drained.size(), 24u);
    };
    for (int warm = 0; warm < 4; ++warm) frame();
    const uint64_t before = bench::heap_allocs();
    for (int hot = 0; hot < 32; ++hot) frame();
    EXPECT_EQ(bench::heap_allocs() - before, 0u)
        << "sealing/fan-out must reuse pooled blocks and capacities";
  });
  p.run();
}

// The recovery seal in steady state: once the journal ring is full and
// both checkpoint buffers have held an image, the digest list and the
// journal records reuse the evicted frame's storage and store() encodes
// into the unpublished buffer's capacity. Only the ring's deque nodes are
// still allocated, one per several frames.
TEST(RecoveryAlloc, SteadyStateSealReusesStorage) {
  const auto map = spatial::make_arena(1024);
  sim::World w(map, {});
  for (int i = 0; i < 16; ++i) w.spawn_player("player" + std::to_string(i));
  recovery::Config rc;
  rc.journal_frames = 8;
  recovery::FlightRecorder recorder(rc, 2, 1);
  recovery::CheckpointManager checkpoints;
  recovery::CheckpointData image;
  image.entity_storage = static_cast<uint32_t>(w.entity_storage_size());
  w.for_each_entity(
      [&](const sim::Entity& e) { image.entities.push_back(e); });

  uint64_t order = 0;
  const auto seal = [&](uint64_t frame) {
    for (uint32_t t = 0; t < 2; ++t) {
      recovery::JournalRecord exec;
      exec.kind = recovery::RecordKind::kMoveExec;
      exec.order = order++;
      recorder.record(t, exec);
    }
    recorder.record(1, recovery::JournalRecord{});  // a forensic drop
    std::vector<recovery::EntityDigest> per = recorder.take_digest_buffer();
    const uint64_t digest = recovery::world_digest(w, &per);
    recorder.seal_frame(frame, vt::TimePoint::zero(), vt::Duration{}, digest,
                        std::move(per));
    if (frame % 4 == 0) checkpoints.store(image);
  };
  uint64_t frame = 1;
  for (; frame <= 32; ++frame) seal(frame);
  constexpr uint64_t kHot = 64;
  const uint64_t before = bench::heap_allocs();
  for (const uint64_t end = frame + kHot; frame < end; ++frame) seal(frame);
  EXPECT_LE(bench::heap_allocs() - before, kHot / 4)
      << "the seal must reuse evicted journal frames and checkpoint buffers";
  EXPECT_EQ(recorder.frames().size(), rc.journal_frames);
  EXPECT_EQ(recorder.frames().back().entity_digests.size(),
            w.active_entities());
}

// End to end: with the shared-baseline reply path on, the server does not
// allocate more per frame than the legacy path (it should allocate less —
// no per-reply encode vectors), and the harness exports the metric.
TEST(ReplyAllocE2E, SharedPathAllocatesNoMoreThanLegacy) {
  auto cfg = harness::paper_config(harness::ServerMode::kSequential, 1, 32,
                                   LockPolicy::kNone);
  cfg.server.delta_snapshots = true;
  cfg.warmup = vt::seconds(1);
  cfg.measure = vt::seconds(3);
  const auto legacy = harness::run_experiment(cfg);

  cfg.server.reply.soa_view = true;
  cfg.server.reply.shared_baselines = true;
  const auto shared = harness::run_experiment(cfg);

  ASSERT_GE(legacy.allocs_per_frame, 0.0);  // probe registered and counting
  ASSERT_GE(shared.allocs_per_frame, 0.0);
  EXPECT_EQ(legacy.connected, 32);
  EXPECT_EQ(shared.connected, 32);
  // Whole-process counts (clients included), so allow a sliver of noise.
  EXPECT_LE(shared.allocs_per_frame, legacy.allocs_per_frame * 1.05 + 5.0)
      << "legacy " << legacy.allocs_per_frame << " shared "
      << shared.allocs_per_frame;
}

}  // namespace
}  // namespace qserv::core
