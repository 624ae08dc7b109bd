#pragma once
// Chunked Pauli-set ingestion for the memory-budgeted streaming pipeline.
//
// The budgeted driver never holds the whole encoded Pauli set resident:
// the set is spilled once to a .pset file and read back in contiguous
// chunks of strings. The spill format is the PauliSet::save_binary layout
// (fixed-width header, packed 3-bit words, coefficients) followed by a
// packed-symplectic tail: every string's [x|z] record
// (pauli_packed.hpp), 2 * packed_words(q) words each. Both sections are
// seekable, so a ChunkedPauliReader can reload a chunk either as a full
// PauliSet (load_chunk) or — the conflict hot path — straight into a
// PackedPauliSet (load_chunk_packed) at half the resident bytes and with
// no re-encoding. Files written before the packed tail existed (or by
// PauliSet::save_binary directly) still load: the reader detects the tail
// by file size and otherwise reconstructs packed chunks from the 3-bit
// words.
//
// Incremental sessions grow a spill in place: append_pauli_set writes a
// self-describing *append segment* at EOF (magic, count, 3-bit words,
// coefficients, packed records) instead of rewriting the whole file. A
// reader opened on an appended file walks the segment chain and validates
// every section offset against the actual file layout — it must NOT trust
// the base header's string count or infer the packed tail from the file
// size alone, because appended bytes make both lies. Chunk ranges span
// segment boundaries transparently.
//
// A chunk cache keeps recently used chunks resident as long as the
// MemoryRegistry budget admits them and evicts least-recently-used chunks
// when it does not — the evicted chunk is simply re-read from disk on its
// next use (multi-pass re-scan). PauliChunkCache caches full PauliSet
// chunks (the scalar 3-bit backend), PackedPauliChunkCache caches packed
// records (the SIMD backend).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pauli/pauli_packed.hpp"
#include "pauli/pauli_set.hpp"
#include "util/memory.hpp"
#include "util/packed_colors.hpp"

namespace picasso::pauli {

/// Writes `set` to `path`: the .pset binary format (save_binary) plus the
/// packed-symplectic tail. Returns the file size in bytes. Throws
/// std::runtime_error on I/O failure.
std::size_t spill_pauli_set(const PauliSet& set, const std::string& path);

/// Appends `delta`'s records to an existing .pset spill at `path` as one
/// chained append segment (magic, count, 3-bit words, coefficients, packed
/// records) without rewriting the base file — how budgeted incremental
/// sessions grow their spill across updates. The base header is validated
/// (magic + qubit count; an empty delta is a no-op). Returns the new total
/// file size in bytes. Readers already open on `path` keep their old view;
/// re-open to see the appended strings.
std::size_t append_pauli_set(const PauliSet& delta, const std::string& path);

/// Writes a packed coloring sidecar at `path` (conventionally the spill
/// path + ".colors"): the PackedColorArray binary round-trip format, so a
/// .pset spill on disk carries its colors at the same 2/4/8-bit width they
/// occupy in memory. Overwrites any existing sidecar. Throws
/// std::runtime_error on I/O failure.
void write_spill_colors(const std::string& path,
                        const util::PackedColorArray& colors);

/// Reads a sidecar written by write_spill_colors. Throws
/// std::runtime_error on missing or malformed files.
util::PackedColorArray read_spill_colors(const std::string& path);

/// Random-access chunk reader over a .pset file. Chunk i covers strings
/// [i * strings_per_chunk, min(n, (i+1) * strings_per_chunk)).
class ChunkedPauliReader {
 public:
  /// Opens `path` and walks its append-segment chain, re-deriving the true
  /// string count and per-segment section offsets from the file layout.
  /// `max_strings` > 0 clamps the reader to the first `max_strings` strings
  /// (the incremental engine's escalation re-solves exactly its ingested
  /// prefix of a still-growing spill). Throws std::invalid_argument when
  /// strings_per_chunk == 0 (chunk indexing divides by it) and
  /// std::runtime_error on unreadable or structurally inconsistent files.
  ChunkedPauliReader(std::string path, std::size_t strings_per_chunk,
                     std::size_t max_strings = 0);

  const std::string& path() const noexcept { return path_; }
  std::size_t num_strings() const noexcept { return num_strings_; }
  std::size_t num_qubits() const noexcept { return num_qubits_; }
  std::size_t strings_per_chunk() const noexcept { return strings_per_chunk_; }
  std::size_t num_chunks() const noexcept {
    return (num_strings_ + strings_per_chunk_ - 1) / strings_per_chunk_;
  }

  /// True when the spill file carries the packed-symplectic tail, i.e.
  /// load_chunk_packed can seek instead of re-encoding.
  bool has_packed_tail() const noexcept { return has_packed_; }

  std::size_t chunk_begin(std::size_t chunk) const noexcept {
    return chunk * strings_per_chunk_;
  }
  std::size_t chunk_size(std::size_t chunk) const noexcept {
    const std::size_t begin = chunk_begin(chunk);
    const std::size_t end =
        std::min(num_strings_, begin + strings_per_chunk_);
    return end > begin ? end - begin : 0;
  }

  /// Bytes chunk `chunk` occupies once resident as a PauliSet (both
  /// encodings plus coefficients) — the unit PauliChunkCache charges
  /// against the memory budget.
  std::size_t chunk_resident_bytes(std::size_t chunk) const noexcept;

  /// Bytes the same chunk occupies as a PackedPauliSet (records only) —
  /// what PackedPauliChunkCache charges. Roughly half the above.
  std::size_t chunk_packed_resident_bytes(std::size_t chunk) const noexcept;

  /// Same estimate as chunk_resident_bytes for an arbitrary string count
  /// (used to size chunks against a budget share before the reader exists).
  static std::size_t resident_bytes_for(std::size_t num_strings,
                                        std::size_t num_qubits) noexcept;

  /// Seeks to and decodes chunk `chunk` as a standalone PauliSet (local
  /// indices [0, chunk_size)): the 3-bit words are read straight into the
  /// set and validated and decoded word by word (PauliSet::from_words3).
  /// Throws std::runtime_error on I/O failure and std::invalid_argument on
  /// a corrupt code.
  PauliSet load_chunk(std::size_t chunk) const;

  /// Reloads chunk `chunk` in packed form: a straight seek+read of the
  /// packed tail when present, else load_chunk's decode of the 3-bit
  /// section.
  PackedPauliSet load_chunk_packed(std::size_t chunk) const;

  /// Total chunk loads performed through this reader (telemetry: every
  /// load beyond the first per chunk is a budget-forced re-scan).
  std::uint64_t chunk_loads() const noexcept { return chunk_loads_; }

  /// Loads beyond the first per chunk — the budget-forced re-scans, broken
  /// out of chunk_loads() (which also counts each chunk's cold read).
  std::uint64_t re_reads() const noexcept { return re_reads_; }

 private:
  /// One contiguous run of strings in the file: the base save_binary block
  /// or one append segment. Section offsets are absolute file positions;
  /// packed_offset == 0 means the segment carries no packed records.
  struct Segment {
    std::size_t begin = 0;  // global id of the segment's first string
    std::size_t count = 0;
    std::uint64_t words3_offset = 0;
    std::uint64_t coefs_offset = 0;
    std::uint64_t packed_offset = 0;
  };

  enum class Section { Words3, Coefs, Packed };

  /// Telemetry for one completed chunk read of `bytes` payload bytes:
  /// counts the load, classifies it as cold read vs re-read, and feeds the
  /// global work counters.
  void note_load(std::size_t chunk, std::size_t bytes) const;

  /// Reads `count` strings of one section starting at global string
  /// `begin` into `dest`, crossing segment boundaries as needed.
  void read_span(std::istream& in, Section section, std::size_t begin,
                 std::size_t count, char* dest) const;

  std::string path_;
  std::size_t strings_per_chunk_ = 0;
  std::size_t num_strings_ = 0;
  std::size_t num_qubits_ = 0;
  std::size_t words3_ = 0;
  std::size_t words2_ = 0;
  bool has_packed_ = false;
  std::vector<Segment> segments_;
  mutable std::uint64_t chunk_loads_ = 0;
  mutable std::uint64_t re_reads_ = 0;
  mutable std::vector<bool> loaded_;  // per chunk: read at least once
};

namespace detail {

/// What a chunk cache needs to know about its set type: how to load a
/// chunk and what the resident charge is.
template <typename SetT>
struct ChunkCacheTraits;

template <>
struct ChunkCacheTraits<PauliSet> {
  static PauliSet load(const ChunkedPauliReader& r, std::size_t chunk) {
    return r.load_chunk(chunk);
  }
  static std::size_t bytes(const ChunkedPauliReader& r, std::size_t chunk) {
    return r.chunk_resident_bytes(chunk);
  }
};

template <>
struct ChunkCacheTraits<PackedPauliSet> {
  static PackedPauliSet load(const ChunkedPauliReader& r, std::size_t chunk) {
    return r.load_chunk_packed(chunk);
  }
  static std::size_t bytes(const ChunkedPauliReader& r, std::size_t chunk) {
    return r.chunk_packed_resident_bytes(chunk);
  }
};

}  // namespace detail

/// LRU cache of resident chunks, admission-controlled by the registry
/// budget (MemSubsystem::ChunkCache). get() returns a shared_ptr so a
/// caller-pinned chunk survives eviction (the cache merely drops its own
/// reference; the charge is released when the last owner lets go). When
/// even an empty cache cannot admit one chunk — budget smaller than one
/// chunk — the chunk is loaded and charged anyway (recorded as an
/// over-budget event) so the pipeline degrades to pure re-scan instead of
/// failing.
template <typename SetT>
class BasicPauliChunkCache {
 public:
  explicit BasicPauliChunkCache(
      const ChunkedPauliReader& reader,
      util::MemoryRegistry& registry = util::global_memory())
      : reader_(&reader), registry_(&registry) {}

  std::shared_ptr<const SetT> get(std::size_t chunk) {
    ++clock_;
    for (Entry& e : entries_) {
      if (e.chunk == chunk) {
        e.last_use = clock_;
        ++hits_;
        obs::count(obs::Counter::ChunkCacheHits);
        return e.set;
      }
    }
    ++misses_;
    obs::count(obs::Counter::ChunkCacheMisses);

    // Miss: make room under the budget, oldest chunks first. try_charge is
    // the admission test; eviction only drops the cache's reference, so a
    // chunk pinned by the caller keeps its charge until the pin goes away.
    const std::size_t bytes =
        detail::ChunkCacheTraits<SetT>::bytes(*reader_, chunk);
    bool charged =
        registry_->try_charge(util::MemSubsystem::ChunkCache, bytes);
    while (!charged && !entries_.empty()) {
      auto oldest = std::min_element(entries_.begin(), entries_.end(),
                                     [](const Entry& a, const Entry& b) {
                                       return a.last_use < b.last_use;
                                     });
      entries_.erase(oldest);
      ++evictions_;
      obs::count(obs::Counter::ChunkCacheEvictions);
      charged =
          registry_->try_charge(util::MemSubsystem::ChunkCache, bytes);
    }
    if (!charged) {
      // Budget smaller than a single chunk (or everything else is pinned):
      // proceed anyway — the overage is recorded as an over-budget event —
      // rather than deadlocking the pipeline.
      registry_->charge(util::MemSubsystem::ChunkCache, bytes);
    }

    util::MemoryRegistry* registry = registry_;
    std::shared_ptr<const SetT> set(
        new SetT(detail::ChunkCacheTraits<SetT>::load(*reader_, chunk)),
        [registry, bytes](const SetT* p) {
          registry->release(util::MemSubsystem::ChunkCache, bytes);
          delete p;
        });
    entries_.push_back({chunk, set, clock_});
    return set;
  }

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

  /// Drops every cached chunk (charges release as references expire).
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    std::size_t chunk = 0;
    std::shared_ptr<const SetT> set;
    std::uint64_t last_use = 0;
  };

  const ChunkedPauliReader* reader_;
  util::MemoryRegistry* registry_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

using PauliChunkCache = BasicPauliChunkCache<PauliSet>;
using PackedPauliChunkCache = BasicPauliChunkCache<PackedPauliSet>;

}  // namespace picasso::pauli
