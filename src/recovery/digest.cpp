#include "src/recovery/digest.hpp"

#include <cstring>

namespace qserv::recovery {
namespace {

uint64_t load_le64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  return v;
}

uint32_t bits(float f) { return std::bit_cast<uint32_t>(f); }
uint32_t bits(int32_t i) { return static_cast<uint32_t>(i); }
uint64_t pair(uint32_t lo, uint32_t hi) {
  return lo | (static_cast<uint64_t>(hi) << 32);
}

// Replay-relevant state of one entity, two 32-bit fields per word.
// Excludes `active` (only active entities are hashed) and `cluster` /
// `areanode`, which are derived from origin/links and checked elsewhere.
uint64_t entity_hash(const sim::Entity& e) {
  const uint32_t kinds =
      static_cast<uint32_t>(e.type) | (static_cast<uint32_t>(e.weapon) << 8) |
      (static_cast<uint32_t>(e.item) << 16) |
      (static_cast<uint32_t>(e.solid) << 24) |
      (static_cast<uint32_t>(e.on_ground) << 25) |
      (static_cast<uint32_t>(e.available) << 26);
  uint64_t h = kHashSeed;
  h = hash_word(h, pair(e.id, kinds));
  h = hash_word(h, pair(bits(e.origin.x), bits(e.origin.y)));
  h = hash_word(h, pair(bits(e.origin.z), bits(e.velocity.x)));
  h = hash_word(h, pair(bits(e.velocity.y), bits(e.velocity.z)));
  h = hash_word(h, pair(bits(e.yaw_deg), bits(e.mins.x)));
  h = hash_word(h, pair(bits(e.mins.y), bits(e.mins.z)));
  h = hash_word(h, pair(bits(e.maxs.x), bits(e.maxs.y)));
  h = hash_word(h, pair(bits(e.maxs.z), bits(e.health)));
  h = hash_word(h, pair(bits(e.armor), bits(e.frags)));
  h = hash_word(h, pair(bits(e.grenades), e.deaths));
  h = hash_word(h, static_cast<uint64_t>(e.next_attack.ns));
  h = hash_word(h, static_cast<uint64_t>(e.respawn_at.ns));
  h = hash_word(h, static_cast<uint64_t>(e.expire_at.ns));
  h = hash_word(h, pair(e.owner, bits(e.dir.x)));
  h = hash_word(h, pair(bits(e.dir.y), bits(e.dir.z)));
  h = hash_word(h, pair(bits(e.teleport_dest.x), bits(e.teleport_dest.y)));
  h = hash_word(h, bits(e.teleport_dest.z));
  h = hash_bytes(h, e.name.data(), e.name.size());
  return hash_finish(h);
}

}  // namespace

uint64_t hash_bytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  h = hash_word(h, n);
  for (; n >= 8; n -= 8, p += 8) h = hash_word(h, load_le64(p));
  if (n > 0) {
    unsigned char tail[8] = {};
    std::memcpy(tail, p, n);
    h = hash_word(h, load_le64(tail));
  }
  return h;
}

uint64_t world_digest(const sim::World& w,
                      std::vector<EntityDigest>* per_entity) {
  if (per_entity != nullptr) {
    per_entity->clear();
    per_entity->reserve(w.active_entities());
  }
  uint64_t h = kHashSeed;
  w.for_each_entity([&](const sim::Entity& e) {
    const uint64_t eh = entity_hash(e);
    if (per_entity != nullptr)
      per_entity->push_back({e.id, static_cast<uint32_t>(eh ^ (eh >> 32))});
    h = hash_word(h, eh);
  });
  // Fold in the allocator and RNG so drift is caught at its source frame.
  const std::vector<uint32_t>& free_ids = w.free_ids();
  h = hash_word(h, w.entity_storage_size());
  h = hash_word(h, free_ids.size());
  size_t i = 0;
  for (; i + 1 < free_ids.size(); i += 2)
    h = hash_word(h, pair(free_ids[i], free_ids[i + 1]));
  if (i < free_ids.size()) h = hash_word(h, free_ids[i]);
  for (const uint64_t word : w.rng().state()) h = hash_word(h, word);
  return hash_finish(h);
}

}  // namespace qserv::recovery
