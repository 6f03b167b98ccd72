// Microbenchmarks: the recovery seal's host cost on the paper's 160-player
// world — the per-frame world digest (with and without the per-entity
// digests the journal keeps) and the checkpoint encode/decode round trip
// including the whole-file checksum (host-time, google-benchmark).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/recovery/checkpoint.hpp"
#include "src/recovery/digest.hpp"
#include "src/spatial/map_gen.hpp"

namespace qserv::recovery {
namespace {

constexpr int kPlayers = 160;
// Entity storage as a server pre-sizes it: spawns draw ids from the free
// list, which the digest folds in every frame.
constexpr size_t kEntityStorage = 1024;

struct Fixture {
  spatial::GameMap map = spatial::make_large_deathmatch(7);
  sim::World world{map, {}};

  Fixture() {
    world.reserve_entities(kEntityStorage);
    for (int i = 0; i < kPlayers; ++i)
      world.spawn_player("player" + std::to_string(i));
  }

  // The image a 160-player server checkpoints: world, areanode lists and
  // one client record per player.
  CheckpointData checkpoint() const {
    CheckpointData c;
    c.frame = 4096;
    c.seed = 1;
    c.threads = 2;
    c.max_clients = kPlayers;
    c.digest = world_digest(world);
    c.rng_state = world.rng().state();
    c.map_text = map.serialize();
    c.entity_storage = static_cast<uint32_t>(world.entity_storage_size());
    world.for_each_entity(
        [&](const sim::Entity& e) { c.entities.push_back(e); });
    c.free_ids = world.free_ids();
    const auto& tree = world.tree();
    for (int i = 0; i < tree.node_count(); ++i) {
      if (!tree.node(i).objects.empty())
        c.node_objects.emplace_back(i, tree.node(i).objects);
    }
    uint16_t slot = 0;
    for (const auto& e : c.entities) {
      if (!e.is_player()) continue;
      ClientRecord r;
      r.slot = slot;
      r.remote_port = static_cast<uint16_t>(40000 + slot);
      r.name = e.name;
      r.entity_id = e.id;
      r.owner_thread = slot % 2u;
      c.clients.push_back(r);
      ++slot;
    }
    return c;
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

void BM_WorldDigest(benchmark::State& state) {
  const sim::World& w = fixture().world;
  for (auto _ : state) benchmark::DoNotOptimize(world_digest(w));
  state.counters["entities"] = static_cast<double>(w.active_entities());
  state.counters["free_ids"] = static_cast<double>(w.free_ids().size());
}
BENCHMARK(BM_WorldDigest)->Unit(benchmark::kMicrosecond);

void BM_WorldDigestPerEntity(benchmark::State& state) {
  const sim::World& w = fixture().world;
  std::vector<EntityDigest> per;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world_digest(w, &per));
    benchmark::DoNotOptimize(per.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_WorldDigestPerEntity)->Unit(benchmark::kMicrosecond);

void BM_EncodeCheckpoint(benchmark::State& state) {
  const CheckpointData c = fixture().checkpoint();
  size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<uint8_t> image = encode_checkpoint(c);
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_EncodeCheckpoint)->Unit(benchmark::kMicrosecond);

void BM_DecodeCheckpoint(benchmark::State& state) {
  const std::vector<uint8_t> image = encode_checkpoint(fixture().checkpoint());
  CheckpointData out;
  for (auto _ : state) {
    if (decode_checkpoint(image, out) != LoadError::kNone) {
      state.SkipWithError("checkpoint does not decode");
      break;
    }
    benchmark::DoNotOptimize(out.entities.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_DecodeCheckpoint)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace qserv::recovery
