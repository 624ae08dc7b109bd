#pragma once
// Layer microbenches, driven from outside the library on a workload's own
// inputs: the Pauli strike kernel (graph::PackedComplementOracle::
// edge_block), spill write and chunked read-back (pauli/pauli_stream), and
// the service wire codec (service/wire). Each repeats its operation for at
// least `min_seconds` and reports the median rate over repetitions.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pauli/pauli_set.hpp"

namespace picasso::perf {

struct EdgeBlockRate {
  double ns_per_pair = 0.0;
  /// Bytes one pair moves as computed from the layout: the neighbour's
  /// packed record, its 4-byte id and the 1-byte verdict.
  double bytes_per_pair = 0.0;
};

EdgeBlockRate bench_edge_block(const pauli::PauliSet& set, double min_seconds);

struct SpillRates {
  double write_mb_s = 0.0;  // pauli::spill_pauli_set
  double read_mb_s = 0.0;   // ChunkedPauliReader::load_chunk_packed, all chunks
};

/// Spills `set` to `path` (removed afterwards) and reads it back in
/// `strings_per_chunk` chunks.
SpillRates bench_spill(const pauli::PauliSet& set, const std::string& path,
                       std::size_t strings_per_chunk, double min_seconds);

struct WireRates {
  double encode_mb_s = 0.0;  // wire::encode_solve_request
  double decode_mb_s = 0.0;  // wire::decode_solve_request + decode_result
};

/// Round-trips a solve request carrying `set` and a result carrying
/// `colors`, the two payloads of one service call.
WireRates bench_wire(const pauli::PauliSet& set,
                     const std::vector<std::uint32_t>& colors,
                     double min_seconds);

}  // namespace picasso::perf
