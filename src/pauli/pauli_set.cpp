#include "pauli/pauli_set.hpp"

#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace picasso::pauli {

PauliSet::PauliSet(const std::vector<PauliString>& strings,
                   std::vector<double> coefficients) {
  size_ = strings.size();
  if (size_ == 0) return;
  num_qubits_ = strings.front().num_qubits();
  for (const auto& s : strings) {
    if (s.num_qubits() != num_qubits_) {
      throw std::invalid_argument("PauliSet: inconsistent qubit counts");
    }
  }
  words3_ = words_per_string3(num_qubits_);
  words2_ = words_per_string2(num_qubits_);
  words3_data_.assign(size_ * words3_, 0);
  words2_data_.assign(size_ * 2 * words2_, 0);
  for (std::size_t i = 0; i < size_; ++i) {
    encode3(strings[i], words3_data_.data() + i * words3_);
    encode2(strings[i], words2_data_.data() + (2 * i) * words2_,
            words2_data_.data() + (2 * i + 1) * words2_);
  }
  if (coefficients.empty()) {
    coefficients_.assign(size_, 1.0);
  } else {
    if (coefficients.size() != size_) {
      throw std::invalid_argument("PauliSet: coefficient count mismatch");
    }
    coefficients_ = std::move(coefficients);
  }
}

PauliString PauliSet::string(std::size_t i) const {
  return decode3(encoded3(i), num_qubits_);
}

std::uint64_t PauliSet::count_anticommuting_pairs() const {
  std::uint64_t count = 0;
#ifdef PICASSO_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 64) reduction(+ : count)
#endif
  for (std::size_t i = 0; i < size_; ++i) {
    for (std::size_t j = i + 1; j < size_; ++j) {
      count += anticommute(i, j) ? 1 : 0;
    }
  }
  return count;
}

namespace {
constexpr std::uint64_t kMagic = 0x5041554c49534554ULL;  // "PAULISET"
constexpr std::size_t kHeaderWords = 3;  // magic, qubit count, string count
constexpr std::size_t kHeaderBytes = kHeaderWords * sizeof(std::uint64_t);

// One bit per 3-bit code slot of a word: bits 0, 3, ..., 60.
constexpr std::uint64_t kCodeLowBits = 0x1249249249249249ULL;
// The 63 bits that hold the 21 codes of a full word.
constexpr std::uint64_t kFullWordBits = ~std::uint64_t{0} >> 1;

/// Gathers bits 0, 3, ..., 60 of `v` into bits 0..20 (the 3D Morton
/// compaction): one code bit of each of a word's 21 operators, in order.
constexpr std::uint64_t compact_every_third_bit(std::uint64_t v) noexcept {
  v &= kCodeLowBits;
  v = (v ^ (v >> 2)) & 0x10c30c30c30c30c3ULL;
  v = (v ^ (v >> 4)) & 0x100f00f00f00f00fULL;
  v = (v ^ (v >> 8)) & 0x001f0000ff0000ffULL;
  v = (v ^ (v >> 16)) & 0x001f00000000ffffULL;
  v = (v ^ (v >> 32)) & 0x00000000001fffffULL;
  return v;
}

/// String count and qubit count of a binary header, checked against the
/// `available` bytes after it before anything is allocated: the header is
/// untrusted input (a cache file or a network payload).
struct BinaryHeader {
  std::size_t num_qubits = 0;
  std::size_t size = 0;
};

BinaryHeader check_header(const std::uint64_t (&raw)[kHeaderWords],
                          std::size_t available) {
  if (raw[0] != kMagic) {
    throw std::runtime_error("PauliSet::load_binary: bad magic");
  }
  // Bound the qubit count so words_per_string2/3 cannot overflow.
  if (raw[1] > std::numeric_limits<std::size_t>::max() - kOpsPerWord2) {
    throw std::runtime_error("PauliSet::load_binary: qubit count overflows");
  }
  BinaryHeader header;
  header.num_qubits = static_cast<std::size_t>(raw[1]);
  const std::size_t per_string =
      words_per_string3(header.num_qubits) * sizeof(std::uint64_t) +
      sizeof(double);
  if (raw[2] > available / per_string) {
    throw std::runtime_error(
        "PauliSet::load_binary: header claims more strings than the input "
        "holds");
  }
  header.size = static_cast<std::size_t>(raw[2]);
  return header;
}
}  // namespace

PauliSet PauliSet::from_words3(std::size_t num_qubits,
                               std::vector<std::uint64_t> words3,
                               std::vector<double> coefficients) {
  PauliSet set;
  const std::size_t size = coefficients.size();
  const std::size_t w3 = words_per_string3(num_qubits);
  if (words3.size() != size * w3) {
    throw std::invalid_argument("PauliSet::from_words3: word count mismatch");
  }
  if (size == 0) return set;
  set.size_ = size;
  set.num_qubits_ = num_qubits;
  set.words3_ = w3;
  set.words2_ = words_per_string2(num_qubits);
  set.words2_data_.assign(size * 2 * set.words2_, 0);
  // Bits of the last word that hold operators; everything above is cleared.
  const std::size_t tail_ops =
      w3 == 0 ? 0 : num_qubits - (w3 - 1) * kOpsPerWord3;
  const std::uint64_t tail_bits =
      tail_ops == kOpsPerWord3 ? kFullWordBits
                               : (std::uint64_t{1} << (3 * tail_ops)) - 1;
  for (std::size_t i = 0; i < size; ++i) {
    std::uint64_t* words = words3.data() + i * w3;
    std::uint64_t* x = set.words2_data_.data() + 2 * i * set.words2_;
    std::uint64_t* z = x + set.words2_;
    for (std::size_t k = 0; k < w3; ++k) {
      const std::uint64_t word =
          words[k] & (k + 1 < w3 ? kFullWordBits : tail_bits);
      words[k] = word;
      // The valid codes 000/110/101/011 are exactly those of even popcount.
      if (((word ^ (word >> 1) ^ (word >> 2)) & kCodeLowBits) != 0) {
        throw std::invalid_argument("PauliSet::from_words3: corrupt encoding");
      }
      const std::uint64_t xs = compact_every_third_bit(word >> 2);
      const std::uint64_t zs = compact_every_third_bit(word);
      // Operator k * 21 lands at this bit of the 64-operator planes; a word's
      // 21 operators may straddle two plane words.
      const std::size_t first = k * kOpsPerWord3;
      const std::size_t pw = first / kOpsPerWord2;
      const std::size_t shift = first % kOpsPerWord2;
      x[pw] |= xs << shift;
      z[pw] |= zs << shift;
      if (shift > kOpsPerWord2 - kOpsPerWord3 && pw + 1 < set.words2_) {
        x[pw + 1] |= xs >> (kOpsPerWord2 - shift);
        z[pw + 1] |= zs >> (kOpsPerWord2 - shift);
      }
    }
  }
  set.words3_data_ = std::move(words3);
  set.coefficients_ = std::move(coefficients);
  return set;
}

std::size_t PauliSet::binary_size() const noexcept {
  return kHeaderBytes + words3_data_.size() * sizeof(std::uint64_t) +
         coefficients_.size() * sizeof(double);
}

void PauliSet::save_binary(std::ostream& out) const {
  const std::uint64_t header[kHeaderWords] = {
      kMagic, static_cast<std::uint64_t>(num_qubits_),
      static_cast<std::uint64_t>(size_)};
  out.write(reinterpret_cast<const char*>(header), kHeaderBytes);
  out.write(reinterpret_cast<const char*>(words3_data_.data()),
            static_cast<std::streamsize>(words3_data_.size() *
                                         sizeof(std::uint64_t)));
  out.write(reinterpret_cast<const char*>(coefficients_.data()),
            static_cast<std::streamsize>(coefficients_.size() * sizeof(double)));
}

void PauliSet::save_binary(std::span<std::uint8_t> out) const {
  if (out.size() < binary_size()) {
    throw std::invalid_argument("PauliSet::save_binary: buffer too small");
  }
  const std::uint64_t header[kHeaderWords] = {
      kMagic, static_cast<std::uint64_t>(num_qubits_),
      static_cast<std::uint64_t>(size_)};
  std::uint8_t* p = out.data();
  std::memcpy(p, header, kHeaderBytes);
  p += kHeaderBytes;
  const std::size_t word_bytes = words3_data_.size() * sizeof(std::uint64_t);
  if (word_bytes > 0) std::memcpy(p, words3_data_.data(), word_bytes);
  p += word_bytes;
  if (size_ > 0) {
    std::memcpy(p, coefficients_.data(), size_ * sizeof(double));
  }
}

PauliSet PauliSet::load_binary(std::istream& in) {
  std::uint64_t raw[kHeaderWords];
  if (!in.read(reinterpret_cast<char*>(raw), kHeaderBytes)) {
    throw std::runtime_error("PauliSet::load_binary: truncated input");
  }
  // What the stream still holds bounds what the header may claim.
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  if (here < 0 || end < here || !in) {
    throw std::runtime_error("PauliSet::load_binary: input is not seekable");
  }
  const BinaryHeader header =
      check_header(raw, static_cast<std::size_t>(end - here));
  std::vector<std::uint64_t> words(header.size *
                                   words_per_string3(header.num_qubits));
  in.read(reinterpret_cast<char*>(words.data()),
          static_cast<std::streamsize>(words.size() * sizeof(std::uint64_t)));
  std::vector<double> coefs(header.size);
  in.read(reinterpret_cast<char*>(coefs.data()),
          static_cast<std::streamsize>(coefs.size() * sizeof(double)));
  if (!in) throw std::runtime_error("PauliSet::load_binary: truncated input");
  return from_words3(header.num_qubits, std::move(words), std::move(coefs));
}

PauliSet PauliSet::load_binary(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) {
    throw std::runtime_error("PauliSet::load_binary: truncated input");
  }
  std::uint64_t raw[kHeaderWords];
  std::memcpy(raw, bytes.data(), kHeaderBytes);
  const BinaryHeader header = check_header(raw, bytes.size() - kHeaderBytes);
  const std::uint8_t* p = bytes.data() + kHeaderBytes;
  std::vector<std::uint64_t> words(header.size *
                                   words_per_string3(header.num_qubits));
  const std::size_t word_bytes = words.size() * sizeof(std::uint64_t);
  if (word_bytes > 0) std::memcpy(words.data(), p, word_bytes);
  std::vector<double> coefs(header.size);
  if (header.size > 0) {
    std::memcpy(coefs.data(), p + word_bytes, header.size * sizeof(double));
  }
  return from_words3(header.num_qubits, std::move(words), std::move(coefs));
}

PauliSet PauliSet::prefix(std::size_t count) const {
  count = std::min(count, size_);
  PauliSet out;
  out.size_ = count;
  out.num_qubits_ = num_qubits_;
  out.words3_ = words3_;
  out.words2_ = words2_;
  out.words3_data_.assign(words3_data_.begin(),
                          words3_data_.begin() + count * words3_);
  out.words2_data_.assign(words2_data_.begin(),
                          words2_data_.begin() + count * 2 * words2_);
  out.coefficients_.assign(coefficients_.begin(),
                           coefficients_.begin() + count);
  return out;
}

void PauliSet::append(const PauliSet& other) {
  if (other.size_ == 0) return;
  if (size_ == 0) {
    *this = other;
    return;
  }
  if (other.num_qubits_ != num_qubits_) {
    throw std::invalid_argument("PauliSet::append: qubit count mismatch");
  }
  words3_data_.insert(words3_data_.end(), other.words3_data_.begin(),
                      other.words3_data_.end());
  words2_data_.insert(words2_data_.end(), other.words2_data_.begin(),
                      other.words2_data_.end());
  coefficients_.insert(coefficients_.end(), other.coefficients_.begin(),
                       other.coefficients_.end());
  size_ += other.size_;
}

PauliSet PauliSet::subset(const std::vector<std::uint32_t>& ids) const {
  std::vector<PauliString> strings;
  std::vector<double> coefs;
  strings.reserve(ids.size());
  coefs.reserve(ids.size());
  for (std::uint32_t id : ids) {
    strings.push_back(string(id));
    coefs.push_back(coefficients_[id]);
  }
  return PauliSet(strings, std::move(coefs));
}

}  // namespace picasso::pauli
