// World-state digests for deterministic replay, and the word-at-a-time
// hash they share with the checkpoint's whole-file checksum.
//
// The world digest hashes every active entity once, in id order, into a
// 64-bit entity hash (float fields by bit pattern, so "bit-identical"
// means exactly that), folds each entity hash into the world hash, then
// folds in the free-id stack and world RNG state — allocator or RNG drift
// shows up the frame it happens, not frames later when it first moves an
// entity. The 32-bit per-entity journal digest is derived from the same
// entity hash, so asking for it costs no second pass.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/world.hpp"

namespace qserv::recovery {

inline constexpr uint64_t kHashSeed = 0x9e3779b97f4a7c15ull;
inline constexpr uint64_t kHashK1 = 0x87c37b91114253d5ull;  // odd
inline constexpr uint64_t kHashK2 = 0x4cf5ad432745937full;  // odd

// Absorbs one 64-bit word. For a fixed word the step is a bijection of the
// state (xor, rotate, odd multiply); for a fixed state it is a bijection
// of the word (odd multiply, then the same). So two inputs of equal length
// that differ in exactly one word always leave different states after
// that word, every later step keeps them different, and so does the
// (bijective) finish: a single-word change can never go unnoticed.
inline uint64_t hash_word(uint64_t h, uint64_t v) {
  return std::rotl(h ^ (v * kHashK1), 31) * kHashK2;
}

// Final avalanche (MurmurHash3 fmix64, a bijection) so every input bit
// reaches every output bit.
inline uint64_t hash_finish(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// Absorbs `n` bytes after their length, eight at a time as little-endian
// words (the tail word zero-padded), so the result does not depend on the
// host's byte order. Not finished: callers fold on or call hash_finish.
uint64_t hash_bytes(uint64_t h, const void* data, size_t n);

struct EntityDigest {
  uint32_t id = 0;
  uint32_t hash = 0;
};

// Frame digest over the whole world. If `per_entity` is non-null it is
// filled with (id, hash) for every active entity in id order — the data a
// divergence report uses to name the first offending entity. The digest
// is the same either way.
uint64_t world_digest(const sim::World& w,
                      std::vector<EntityDigest>* per_entity = nullptr);

}  // namespace qserv::recovery
