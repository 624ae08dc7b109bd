// Tests for the bit encodings of §IV-A: the inverse-one-hot 3-bit packing
// (X=110, Y=101, Z=011, I=000) and the symplectic 2-bit alternative. The
// central property: both encoded anticommutation kernels agree with the
// character-comparison reference on every input, across word boundaries.

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <sstream>
#include <tuple>
#include <vector>

#include "api/session.hpp"
#include "pauli/encoding.hpp"
#include "pauli/pauli_set.hpp"
#include "util/rng.hpp"

namespace pp = picasso::pauli;

namespace {
pp::PauliString random_string(std::size_t n, picasso::util::Xoshiro256& rng) {
  pp::PauliString s(n);
  for (std::size_t q = 0; q < n; ++q) {
    s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
  }
  return s;
}
}  // namespace

TEST(Encoding, InverseOneHotCodes) {
  EXPECT_EQ(pp::inverse_one_hot_code(pp::PauliOp::I), 0b000u);
  EXPECT_EQ(pp::inverse_one_hot_code(pp::PauliOp::X), 0b110u);
  EXPECT_EQ(pp::inverse_one_hot_code(pp::PauliOp::Y), 0b101u);
  EXPECT_EQ(pp::inverse_one_hot_code(pp::PauliOp::Z), 0b011u);
}

TEST(Encoding, PairwiseAndPopcountParityMatchesAnticommutation) {
  // The defining property of the encoding: popcount(code(a) & code(b)) is
  // odd exactly when a and b anticommute (distinct non-identity operators).
  using Op = pp::PauliOp;
  for (Op a : {Op::I, Op::X, Op::Y, Op::Z}) {
    for (Op b : {Op::I, Op::X, Op::Y, Op::Z}) {
      const auto both =
          pp::inverse_one_hot_code(a) & pp::inverse_one_hot_code(b);
      const bool odd = (__builtin_popcountll(both) & 1) != 0;
      EXPECT_EQ(odd, pp::anticommutes(a, b))
          << pp::to_char(a) << " vs " << pp::to_char(b);
    }
  }
}

TEST(Encoding, WordsPerString) {
  EXPECT_EQ(pp::words_per_string3(1), 1u);
  EXPECT_EQ(pp::words_per_string3(21), 1u);
  EXPECT_EQ(pp::words_per_string3(22), 2u);
  EXPECT_EQ(pp::words_per_string3(42), 2u);
  EXPECT_EQ(pp::words_per_string3(43), 3u);
  EXPECT_EQ(pp::words_per_string2(64), 1u);
  EXPECT_EQ(pp::words_per_string2(65), 2u);
}

TEST(Encoding, EncodeDecodeRoundTrip) {
  picasso::util::Xoshiro256 rng(7);
  for (std::size_t n : {1u, 4u, 20u, 21u, 22u, 40u, 63u, 64u, 65u, 100u}) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto s = random_string(n, rng);
      std::vector<std::uint64_t> words(pp::words_per_string3(n));
      pp::encode3(s, words.data());
      EXPECT_EQ(pp::decode3(words.data(), n), s) << "n=" << n;
    }
  }
}

TEST(Encoding, DecodeRejectsCorruptWords) {
  std::vector<std::uint64_t> words{0b111};  // not a valid op code
  EXPECT_THROW(pp::decode3(words.data(), 1), std::invalid_argument);
}

// The key cross-kernel agreement property, swept over qubit counts that
// stress word boundaries of both encodings.
class EncodingAgreement
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(EncodingAgreement, AllKernelsAgree) {
  const auto [n, seed] = GetParam();
  picasso::util::Xoshiro256 rng(seed);
  std::vector<pp::PauliString> strings;
  for (int i = 0; i < 24; ++i) strings.push_back(random_string(n, rng));
  const pp::PauliSet set(strings);
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < set.size(); ++j) {
      const bool reference = strings[i].anticommutes_with(strings[j]);
      EXPECT_EQ(set.anticommute(i, j), reference) << "n=" << n;
      EXPECT_EQ(set.anticommute_symplectic(i, j), reference) << "n=" << n;
      EXPECT_EQ(set.anticommute_naive(i, j), reference) << "n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    QubitCountsAndSeeds, EncodingAgreement,
    ::testing::Combine(::testing::Values(1, 2, 8, 21, 22, 42, 43, 64, 65, 70),
                       ::testing::Values(1u, 99u)));

TEST(PauliSet, ConstructionAndAccessors) {
  const std::vector<pp::PauliString> strings{pp::PauliString::parse("XX"),
                                             pp::PauliString::parse("YZ")};
  const pp::PauliSet set(strings, {0.5, -1.5});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.num_qubits(), 2u);
  EXPECT_EQ(set.string(0).to_string(), "XX");
  EXPECT_EQ(set.string(1).to_string(), "YZ");
  EXPECT_DOUBLE_EQ(set.coefficient(1), -1.5);
  EXPECT_GT(set.logical_bytes(), 0u);
}

TEST(PauliSet, DefaultCoefficientsAreOne) {
  const pp::PauliSet set({pp::PauliString::parse("X")});
  EXPECT_DOUBLE_EQ(set.coefficient(0), 1.0);
}

TEST(PauliSet, RejectsMixedWidthsAndBadCoefficients) {
  const std::vector<pp::PauliString> mixed{pp::PauliString::parse("X"),
                                           pp::PauliString::parse("XY")};
  EXPECT_THROW(pp::PauliSet{mixed}, std::invalid_argument);
  const std::vector<pp::PauliString> ok{pp::PauliString::parse("X")};
  EXPECT_THROW(pp::PauliSet(ok, {1.0, 2.0}), std::invalid_argument);
}

TEST(PauliSet, CountAnticommutingPairsMatchesBruteForce) {
  picasso::util::Xoshiro256 rng(5);
  std::vector<pp::PauliString> strings;
  for (int i = 0; i < 40; ++i) strings.push_back(random_string(6, rng));
  const pp::PauliSet set(strings);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < strings.size(); ++i) {
    for (std::size_t j = i + 1; j < strings.size(); ++j) {
      expected += strings[i].anticommutes_with(strings[j]) ? 1 : 0;
    }
  }
  EXPECT_EQ(set.count_anticommuting_pairs(), expected);
}

TEST(PauliSet, SubsetPreservesStringsAndCoefficients) {
  std::vector<pp::PauliString> strings{
      pp::PauliString::parse("XI"), pp::PauliString::parse("YI"),
      pp::PauliString::parse("ZI"), pp::PauliString::parse("IZ")};
  const pp::PauliSet set(strings, {1, 2, 3, 4});
  const pp::PauliSet sub = set.subset({1, 3});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.string(0).to_string(), "YI");
  EXPECT_EQ(sub.string(1).to_string(), "IZ");
  EXPECT_DOUBLE_EQ(sub.coefficient(0), 2.0);
  EXPECT_DOUBLE_EQ(sub.coefficient(1), 4.0);
}

namespace {

std::uint64_t fingerprint(const pp::PauliSet& set) {
  return picasso::api::problem_fingerprint(set, picasso::core::PicassoParams{});
}

/// Every stored word of `got` — 3-bit words, symplectic planes and
/// coefficients — equals `expect`'s.
void expect_same_storage(const pp::PauliSet& got, const pp::PauliSet& expect,
                         std::size_t n) {
  ASSERT_EQ(got.size(), expect.size()) << "n=" << n;
  ASSERT_EQ(got.num_qubits(), expect.num_qubits()) << "n=" << n;
  ASSERT_EQ(got.words_per_string(), expect.words_per_string()) << "n=" << n;
  const pp::PackedView gv = got.packed_view();
  const pp::PackedView ev = expect.packed_view();
  ASSERT_EQ(gv.words, ev.words) << "n=" << n;
  for (std::size_t i = 0; i < got.size(); ++i) {
    for (std::size_t k = 0; k < got.words_per_string(); ++k) {
      EXPECT_EQ(got.encoded3(i)[k], expect.encoded3(i)[k])
          << "n=" << n << " i=" << i << " k=" << k;
    }
    for (std::size_t k = 0; k < gv.record_words(); ++k) {
      EXPECT_EQ(gv.record(i)[k], ev.record(i)[k])
          << "n=" << n << " i=" << i << " plane word " << k;
    }
    EXPECT_EQ(got.coefficient(i), expect.coefficient(i));
  }
  EXPECT_EQ(fingerprint(got), fingerprint(expect)) << "n=" << n;
}

std::vector<std::uint8_t> to_bytes(const pp::PauliSet& set) {
  std::vector<std::uint8_t> bytes(set.binary_size());
  set.save_binary(std::span<std::uint8_t>(bytes));
  return bytes;
}

/// The 3-bit words of `set`, as from_words3 takes them.
std::vector<std::uint64_t> words_of(const pp::PauliSet& set) {
  if (set.empty()) return {};
  return {set.encoded3(0),
          set.encoded3(0) + set.size() * set.words_per_string()};
}

}  // namespace

TEST(PauliSet, BinarySaveLoadRoundTrip) {
  picasso::util::Xoshiro256 rng(77);
  // Word boundaries of both encodings: 21 codes per 3-bit word, 64
  // operators per symplectic plane word.
  for (std::size_t n : {1u, 20u, 21u, 22u, 63u, 64u, 65u, 130u}) {
    std::vector<pp::PauliString> strings;
    std::vector<double> coefs;
    for (int i = 0; i < 33; ++i) {
      strings.push_back(random_string(n, rng));
      coefs.push_back(rng.uniform() - 0.5);
    }
    const pp::PauliSet reference(strings, coefs);

    std::stringstream buffer;
    reference.save_binary(buffer);
    const std::string stream_bytes = buffer.str();
    const std::vector<std::uint8_t> span_bytes = to_bytes(reference);
    ASSERT_EQ(span_bytes.size(), reference.binary_size());
    ASSERT_EQ(std::string(span_bytes.begin(), span_bytes.end()), stream_bytes)
        << "the two save_binary overloads disagree, n=" << n;

    expect_same_storage(pp::PauliSet::load_binary(buffer), reference, n);
    expect_same_storage(pp::PauliSet::load_binary(span_bytes), reference, n);
    const pp::PauliSet decoded = pp::PauliSet::load_binary(span_bytes);
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      EXPECT_EQ(decoded.string(i), strings[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(PauliSet, FromWords3RejectsEveryInvalidCode) {
  picasso::util::Xoshiro256 rng(3);
  for (std::size_t n : {1u, 21u, 22u, 65u}) {
    const pp::PauliSet clean({random_string(n, rng), random_string(n, rng)});
    for (std::size_t q : {std::size_t{0}, n / 2, n - 1}) {
      for (std::uint64_t code : {0b001u, 0b010u, 0b100u, 0b111u}) {
        std::vector<std::uint64_t> words = words_of(clean);
        // Corrupt qubit q of the second string.
        std::uint64_t& word =
            words[clean.words_per_string() + q / pp::kOpsPerWord3];
        const std::size_t shift = (q % pp::kOpsPerWord3) * 3;
        word = (word & ~(std::uint64_t{0b111} << shift)) | (code << shift);
        EXPECT_THROW(pp::PauliSet::from_words3(n, words, {1.0, 1.0}),
                     std::invalid_argument)
            << "n=" << n << " q=" << q << " code=" << code;
        EXPECT_THROW(pp::decode3(words.data() + clean.words_per_string(), n),
                     std::invalid_argument)
            << "the reference decoder disagrees, n=" << n << " q=" << q;
      }
    }
  }
}

TEST(PauliSet, FromWords3ClearsBitsPastTheLastOperator) {
  picasso::util::Xoshiro256 rng(11);
  for (std::size_t n : {1u, 20u, 21u, 22u, 64u, 65u}) {
    std::vector<pp::PauliString> strings;
    for (int i = 0; i < 5; ++i) strings.push_back(random_string(n, rng));
    const pp::PauliSet clean(strings);
    std::vector<std::uint64_t> words = words_of(clean);
    const std::size_t w3 = clean.words_per_string();
    for (std::size_t i = 0; i < clean.size(); ++i) {
      for (std::size_t k = 0; k < w3; ++k) {
        // Bit 63 never holds a code; the last word's slots past qubit n-1
        // get an invalid code (111) that must be ignored, not rejected.
        std::uint64_t garbage = std::uint64_t{1} << 63;
        if (k + 1 == w3) {
          const std::size_t used = n - k * pp::kOpsPerWord3;
          for (std::size_t slot = used; slot < pp::kOpsPerWord3; ++slot) {
            garbage |= std::uint64_t{0b111} << (3 * slot);
          }
        }
        words[i * w3 + k] |= garbage;
      }
    }
    const pp::PauliSet loaded = pp::PauliSet::from_words3(
        n, std::move(words), std::vector<double>(clean.size(), 1.0));
    expect_same_storage(loaded, clean, n);
  }
}

TEST(PauliSet, EmptySetRoundTrips) {
  const pp::PauliSet empty;
  std::stringstream buffer;
  empty.save_binary(buffer);
  const pp::PauliSet from_stream = pp::PauliSet::load_binary(buffer);
  const pp::PauliSet from_span = pp::PauliSet::load_binary(to_bytes(empty));
  const pp::PauliSet from_words = pp::PauliSet::from_words3(7, {}, {});
  for (const pp::PauliSet* set : {&from_stream, &from_span, &from_words}) {
    EXPECT_TRUE(set->empty());
    EXPECT_EQ(set->num_qubits(), 0u);
    EXPECT_EQ(fingerprint(*set),
              fingerprint(pp::PauliSet(std::vector<pp::PauliString>{})));
  }
  EXPECT_THROW(pp::PauliSet::from_words3(7, {0}, {}), std::invalid_argument);
}

TEST(PauliSet, LoadRejectsHeadersThatOverclaimTheInput) {
  const auto header = [](std::uint64_t qubits, std::uint64_t count) {
    std::vector<std::uint8_t> bytes(to_bytes(pp::PauliSet{}));
    std::memcpy(bytes.data() + 8, &qubits, 8);
    std::memcpy(bytes.data() + 16, &count, 8);
    return bytes;
  };
  const std::uint64_t kHuge = std::uint64_t{1} << 40;
  const std::uint64_t kMaxQubits = ~std::uint64_t{0};
  for (const auto& bytes : {header(12, kHuge), header(kMaxQubits, 1),
                            header(kMaxQubits, 0), header(kHuge, 1)}) {
    EXPECT_THROW(pp::PauliSet::load_binary(bytes), std::runtime_error);
    std::stringstream buffer(std::string(bytes.begin(), bytes.end()));
    EXPECT_THROW(pp::PauliSet::load_binary(buffer), std::runtime_error);
  }
  // One string of 12 qubits needs 16 bytes after the header; 15 is short.
  std::vector<std::uint8_t> short_by_one = header(12, 1);
  short_by_one.resize(short_by_one.size() + 15);
  EXPECT_THROW(pp::PauliSet::load_binary(short_by_one), std::runtime_error);
}

TEST(PauliSet, LoadRejectsGarbage) {
  std::stringstream buffer("definitely not a pauli set");
  EXPECT_THROW(pp::PauliSet::load_binary(buffer), std::runtime_error);
}
