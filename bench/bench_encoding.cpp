// §IV-A microbenchmarks: anticommutation kernels.
//
// The paper reports 1.4-2.0x speedup for the inverse-one-hot bit encoding
// over character comparison on CPU, including encoding overhead. This bench
// measures: character-comparison reference, the 3-bit inverse-one-hot
// kernel, the 2-bit symplectic alternative, the end-to-end cost
// (encode + test sweep) that the paper's claim includes, and the packed
// conflict-oracle backends — the parity-fold scalar kernel and the
// runtime-dispatched SIMD block kernel (pauli/pauli_packed.hpp). It also
// measures decoding the binary format: PauliSet::load_binary and the
// service's decode_solve_request, in MB/s.

#include <benchmark/benchmark.h>

#include <numeric>
#include <span>
#include <vector>

#include "pauli/encoding.hpp"
#include "pauli/pauli_packed.hpp"
#include "pauli/pauli_set.hpp"
#include "service/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace picasso;

std::vector<pauli::PauliString> random_strings(std::size_t count,
                                               std::size_t qubits,
                                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<pauli::PauliString> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pauli::PauliString s(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
      s.set_op(q, static_cast<pauli::PauliOp>(rng.bounded(4)));
    }
    out.push_back(std::move(s));
  }
  return out;
}

constexpr std::size_t kStrings = 512;

void BM_AnticommuteChars(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const auto strings = random_strings(kStrings, qubits, 1);
  std::size_t odd = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kStrings; ++i) {
      for (std::size_t j = i + 1; j < kStrings; ++j) {
        odd += pauli::anticommute_chars(strings[i], strings[j]) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(odd);
  }
  state.SetItemsProcessed(state.iterations() * kStrings * (kStrings - 1) / 2);
}
BENCHMARK(BM_AnticommuteChars)->Arg(8)->Arg(16)->Arg(24)->Arg(40)->Arg(64);

void BM_AnticommuteEncoded3(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const pauli::PauliSet set(random_strings(kStrings, qubits, 1));
  std::size_t odd = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kStrings; ++i) {
      for (std::size_t j = i + 1; j < kStrings; ++j) {
        odd += set.anticommute(i, j) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(odd);
  }
  state.SetItemsProcessed(state.iterations() * kStrings * (kStrings - 1) / 2);
}
BENCHMARK(BM_AnticommuteEncoded3)->Arg(8)->Arg(16)->Arg(24)->Arg(40)->Arg(64);

void BM_AnticommuteSymplectic2(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const pauli::PauliSet set(random_strings(kStrings, qubits, 1));
  std::size_t odd = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kStrings; ++i) {
      for (std::size_t j = i + 1; j < kStrings; ++j) {
        odd += set.anticommute_symplectic(i, j) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(odd);
  }
  state.SetItemsProcessed(state.iterations() * kStrings * (kStrings - 1) / 2);
}
BENCHMARK(BM_AnticommuteSymplectic2)->Arg(8)->Arg(16)->Arg(24)->Arg(40)->Arg(64);

// Packed symplectic records, per-pair scalar kernel: the parity-fold form
// (one AND+XOR per word, a single popcount at the end).
void BM_AnticommutePackedScalar(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const pauli::PackedPauliSet packed(random_strings(kStrings, qubits, 1));
  std::size_t odd = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kStrings; ++i) {
      for (std::size_t j = i + 1; j < kStrings; ++j) {
        odd += packed.anticommute(i, j) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(odd);
  }
  state.SetItemsProcessed(state.iterations() * kStrings * (kStrings - 1) / 2);
}
BENCHMARK(BM_AnticommutePackedScalar)
    ->Arg(8)->Arg(16)->Arg(24)->Arg(40)->Arg(64)->Arg(128)->Arg(256);

// Packed records through the block kernel at the requested SIMD level:
// one row against all later rows per call, the blocked pair-scan's shape.
template <pauli::SimdLevel kLevel>
void BM_AnticommutePackedBlock(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const pauli::PackedPauliSet packed(random_strings(kStrings, qubits, 1));
  if (kLevel == pauli::SimdLevel::Avx2 &&
      pauli::best_simd_level() != pauli::SimdLevel::Avx2) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  const auto kernel = pauli::resolve_block_kernel(packed.words(), kLevel);
  std::vector<std::uint32_t> ids(kStrings);
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<std::uint64_t> swapped(2 * packed.words());
  std::vector<std::uint8_t> out(kStrings);
  std::size_t odd = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < kStrings; ++i) {
      pauli::make_swapped_record(packed.record(i), packed.words(),
                                 swapped.data());
      kernel(swapped.data(), packed.view().data, packed.words(),
             ids.data() + i + 1, kStrings - i - 1, out.data());
      for (std::size_t k = 0; k < kStrings - i - 1; ++k) odd += out[k];
    }
    benchmark::DoNotOptimize(odd);
  }
  state.SetItemsProcessed(state.iterations() * kStrings * (kStrings - 1) / 2);
}
BENCHMARK_TEMPLATE(BM_AnticommutePackedBlock, pauli::SimdLevel::Scalar)
    ->Arg(8)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_TEMPLATE(BM_AnticommutePackedBlock, pauli::SimdLevel::Avx2)
    ->Arg(8)->Arg(64)->Arg(128)->Arg(256);

// The paper's end-to-end claim includes the encoding overhead: encode the
// whole set, then run the pairwise sweep once.
void BM_EncodeThenSweep(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const auto strings = random_strings(kStrings, qubits, 1);
  std::size_t odd = 0;
  for (auto _ : state) {
    const pauli::PauliSet set(strings);  // encoding overhead counted
    for (std::size_t i = 0; i < kStrings; ++i) {
      for (std::size_t j = i + 1; j < kStrings; ++j) {
        odd += set.anticommute(i, j) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(odd);
  }
  state.SetItemsProcessed(state.iterations() * kStrings * (kStrings - 1) / 2);
}
BENCHMARK(BM_EncodeThenSweep)->Arg(16)->Arg(24)->Arg(40);

void BM_EncodeOnly(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const auto strings = random_strings(kStrings, qubits, 1);
  std::vector<std::uint64_t> words(pauli::words_per_string3(qubits));
  for (auto _ : state) {
    for (const auto& s : strings) {
      pauli::encode3(s, words.data());
      benchmark::DoNotOptimize(words.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kStrings);
}
BENCHMARK(BM_EncodeOnly)->Arg(16)->Arg(40);

// Decoding the binary format (dataset disk cache, spill chunks, the service
// wire): 3-bit words validated and decoded word by word into both encodings.
constexpr std::size_t kLoadStrings = 6000;

void BM_LoadBinary(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const pauli::PauliSet set(random_strings(kLoadStrings, qubits, 1));
  std::vector<std::uint8_t> bytes(set.binary_size());
  set.save_binary(std::span<std::uint8_t>(bytes));
  for (auto _ : state) {
    const pauli::PauliSet loaded = pauli::PauliSet::load_binary(bytes);
    benchmark::DoNotOptimize(loaded.packed_view().data);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    bytes.size()));
}
BENCHMARK(BM_LoadBinary)->Arg(12)->Arg(24);

// The service's per-request decode: every cache hit pays it.
void BM_DecodeSolveRequest(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  service::SolveRequestMsg request;
  request.id = 1;
  request.tenant = "tenant-0";
  request.records = pauli::PauliSet(random_strings(kLoadStrings, qubits, 1));
  const std::vector<std::uint8_t> payload =
      service::encode_solve_request(request);
  for (auto _ : state) {
    const service::SolveRequestMsg back =
        service::decode_solve_request(payload);
    benchmark::DoNotOptimize(back.records.packed_view().data);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    payload.size()));
}
BENCHMARK(BM_DecodeSolveRequest)->Arg(12)->Arg(24);

}  // namespace

BENCHMARK_MAIN();
