#include "layers.hpp"

#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "graph/oracles.hpp"
#include "harness.hpp"
#include "pauli/pauli_stream.hpp"
#include "service/wire.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace picasso::perf {

namespace {

/// Runs `op` (returning the bytes or pairs it processed) until
/// `min_seconds` have passed and at least 3 times; returns the median of
/// the per-repetition rates (units per second).
template <typename Op>
double median_rate(double min_seconds, Op&& op) {
  std::vector<double> rates;
  const util::WallTimer total;
  while (rates.size() < 3 || total.seconds() < min_seconds) {
    const util::WallTimer t;
    const double units = static_cast<double>(op());
    rates.push_back(units / std::max(t.seconds(), 1e-9));
  }
  return median(rates);
}

constexpr double kMB = 1e6;

// Keeps the kernel's verdicts observable so the loop is not elided.
volatile std::uint64_t g_sink = 0;

}  // namespace

EdgeBlockRate bench_edge_block(const pauli::PauliSet& set,
                               double min_seconds) {
  const pauli::PackedView view = set.packed_view();
  const graph::PackedComplementOracle oracle(view);
  const auto n = static_cast<graph::VertexId>(view.size);

  // Neighbour lists in a fixed shuffled order: the strike scans gather
  // bucket members, not a contiguous id range.
  std::vector<graph::VertexId> vs(n);
  std::iota(vs.begin(), vs.end(), 0u);
  util::Xoshiro256 rng(7);
  for (std::size_t i = vs.size(); i > 1; --i) {
    std::swap(vs[i - 1], vs[rng.bounded(i)]);
  }
  constexpr std::size_t kBlock = 256;
  constexpr graph::VertexId kSources = 32;
  std::vector<std::uint8_t> out(kBlock);
  std::uint64_t sink = 0;

  const std::uint64_t pairs = std::uint64_t{kSources} * n;
  const double pairs_per_s = median_rate(min_seconds, [&] {
    for (graph::VertexId s = 0; s < kSources; ++s) {
      const graph::VertexId u = vs[s % n];
      for (std::size_t at = 0; at < vs.size(); at += kBlock) {
        const std::size_t count = std::min(kBlock, vs.size() - at);
        oracle.edge_block(u, vs.data() + at, count, out.data());
        sink += out[0];
      }
    }
    return pairs;
  });
  g_sink = sink;
  EdgeBlockRate rate;
  rate.ns_per_pair = 1e9 / pairs_per_s;
  rate.bytes_per_pair =
      static_cast<double>(view.record_words() * sizeof(std::uint64_t) +
                          sizeof(graph::VertexId) + 1);
  return rate;
}

SpillRates bench_spill(const pauli::PauliSet& set, const std::string& path,
                       std::size_t strings_per_chunk, double min_seconds) {
  SpillRates rates;
  rates.write_mb_s = median_rate(min_seconds, [&] {
    return pauli::spill_pauli_set(set, path);
  }) / kMB;

  const pauli::ChunkedPauliReader reader(path, strings_per_chunk);
  rates.read_mb_s = median_rate(min_seconds, [&] {
    std::size_t bytes = 0;
    for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
      const pauli::PackedPauliSet chunk = reader.load_chunk_packed(c);
      if (chunk.size() != reader.chunk_size(c)) {
        throw std::runtime_error("chunk read back short: " + path);
      }
      bytes += reader.chunk_packed_resident_bytes(c);
    }
    return bytes;
  }) / kMB;
  std::filesystem::remove(path);
  return rates;
}

WireRates bench_wire(const pauli::PauliSet& set,
                     const std::vector<std::uint32_t>& colors,
                     double min_seconds) {
  service::SolveRequestMsg request;
  request.id = 1;
  request.tenant = "tenant-0";
  request.records = set;
  service::ResultMsg result;
  result.id = 1;
  result.colors = colors;

  const std::vector<std::uint8_t> request_bytes =
      service::encode_solve_request(request);
  const std::vector<std::uint8_t> result_bytes = service::encode_result(result);
  WireRates rates;

  rates.encode_mb_s = median_rate(min_seconds, [&] {
    return service::encode_solve_request(request).size();
  }) / kMB;
  rates.decode_mb_s = median_rate(min_seconds, [&] {
    const service::SolveRequestMsg back =
        service::decode_solve_request(request_bytes);
    const service::ResultMsg reply = service::decode_result(result_bytes);
    if (back.records.size() != set.size() ||
        reply.colors.size() != colors.size()) {
      throw std::runtime_error("wire round trip lost records");
    }
    return request_bytes.size() + result_bytes.size();
  }) / kMB;
  return rates;
}

}  // namespace picasso::perf
