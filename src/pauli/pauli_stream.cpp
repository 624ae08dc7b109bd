#include "pauli/pauli_stream.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "pauli/encoding.hpp"
#include "util/failpoint.hpp"
#include "util/fnv.hpp"

namespace picasso::pauli {

namespace {

constexpr std::uint64_t kMagic = 0x5041554c49534554ULL;       // "PAULISET"
constexpr std::uint64_t kAppendMagic = 0x5041554c49415050ULL;  // "PAULIAPP"
// Checksum trailer appended after the base block and after every append
// segment: [kTrailerMagic][u64 FNV-1a of the covered bytes]. Legacy files
// without trailers parse exactly as before; a trailer whose checksum does
// not match the bytes it covers is a torn or corrupt write, detected on
// reopen before any chunk is served.
constexpr std::uint64_t kTrailerMagic = 0x5053455453554d31ULL;  // "PSETSUM1"
constexpr std::size_t kHeaderBytes = 3 * sizeof(std::uint64_t);
constexpr std::size_t kSegmentHeaderBytes = 2 * sizeof(std::uint64_t);
constexpr std::size_t kTrailerBytes = 2 * sizeof(std::uint64_t);

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("pauli_stream: truncated .pset header");
  return value;
}

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// FNV-1a over file bytes [begin, end) — trailer verification on reopen.
std::uint64_t fnv_stream_range(std::istream& in, std::uint64_t begin,
                               std::uint64_t end, const std::string& path) {
  in.clear();
  in.seekg(static_cast<std::streamoff>(begin));
  char buf[1 << 16];
  std::uint64_t h = util::kFnvOffsetBasis;
  std::uint64_t remaining = end - begin;
  while (remaining > 0) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(sizeof(buf), remaining));
    in.read(buf, static_cast<std::streamsize>(n));
    if (!in) {
      throw std::runtime_error(
          "pauli_stream: truncated while verifying checksum in " + path);
    }
    h = util::fnv1a_bytes(h, buf, n);
    remaining -= n;
  }
  return h;
}

/// Maps a failed stream write to a structured error: real ENOSPC surfaces
/// as std::system_error(ENOSPC) so callers can fall back in memory instead
/// of treating a full disk like an internal bug.
[[noreturn]] void throw_write_failure(const std::string& what,
                                      const std::string& path) {
  if (errno == ENOSPC) {
    throw std::system_error(ENOSPC, std::generic_category(),
                            what + ": device full writing " + path);
  }
  throw std::runtime_error(what + ": write failed for " + path);
}

}  // namespace

std::size_t spill_pauli_set(const PauliSet& set, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("spill_pauli_set: cannot open " + path);
  }
  errno = 0;
  set.save_binary(out);
  // Packed-symplectic tail: every record [x|z] back to back. The planes are
  // already contiguous in encoded storage, so this is one write — and the
  // reader can reload any chunk packed with a single seek instead of
  // re-encoding from the 3-bit words.
  const PackedView view = set.packed_view();
  const std::size_t packed_words_total = view.size * 2 * view.words;
  const std::size_t tail_bytes = packed_words_total * sizeof(std::uint64_t);
  // Failpoint "spill.write": error/enospc throw here, delay sleeps, short:N
  // truncates the tail and skips the trailer — the on-disk state a crash
  // mid-write would leave, which reopen must then detect.
  const std::size_t tail_written = PICASSO_FAILPOINT_CLAMP("spill.write",
                                                           tail_bytes);
  out.write(reinterpret_cast<const char*>(view.data),
            static_cast<std::streamsize>(tail_written));
  if (tail_written == tail_bytes) {
    // Base-block trailer: FNV over exactly the bytes save_binary + the tail
    // put on disk (header fields fold little-endian, matching x86 file
    // order), so reopen can verify without trusting anything but the file.
    std::uint64_t sum = util::kFnvOffsetBasis;
    sum = util::fnv1a_u64(sum, kMagic);
    sum = util::fnv1a_u64(sum, static_cast<std::uint64_t>(set.num_qubits()));
    sum = util::fnv1a_u64(sum, static_cast<std::uint64_t>(set.size()));
    if (set.size() > 0) {
      sum = util::fnv1a_bytes(sum, set.encoded3(0),
                              set.size() * set.words_per_string() *
                                  sizeof(std::uint64_t));
      sum = util::fnv1a_bytes(sum, set.coefficients().data(),
                              set.size() * sizeof(double));
      sum = util::fnv1a_bytes(sum, view.data, tail_bytes);
    }
    write_pod(out, kTrailerMagic);
    write_pod(out, sum);
  }
  out.flush();
  if (!out) throw_write_failure("spill_pauli_set", path);
  const std::size_t total_bytes =
      kHeaderBytes +
      set.size() * (set.words_per_string() * sizeof(std::uint64_t) +
                    sizeof(double)) +
      packed_words_total * sizeof(std::uint64_t);
  obs::count(obs::Counter::SpillBytesWritten, total_bytes);
  return total_bytes;
}

ChunkedPauliReader::ChunkedPauliReader(std::string path,
                                       std::size_t strings_per_chunk,
                                       std::size_t max_strings)
    : path_(std::move(path)), strings_per_chunk_(strings_per_chunk) {
  if (strings_per_chunk_ == 0) {
    throw std::invalid_argument(
        "ChunkedPauliReader: strings_per_chunk must be positive (chunk "
        "indexing divides by it)");
  }
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ChunkedPauliReader: cannot open " + path_);
  }
  if (read_pod<std::uint64_t>(in) != kMagic) {
    throw std::runtime_error("ChunkedPauliReader: bad magic in " + path_);
  }
  num_qubits_ = static_cast<std::size_t>(read_pod<std::uint64_t>(in));
  const auto base_count = static_cast<std::size_t>(read_pod<std::uint64_t>(in));
  words3_ = words_per_string3(num_qubits_);
  words2_ = packed_words(num_qubits_);

  std::error_code ec;
  const std::uint64_t file_bytes = std::filesystem::file_size(path_, ec);
  if (ec) {
    throw std::runtime_error("ChunkedPauliReader: cannot stat " + path_);
  }

  // The base header's count describes the base block only; everything past
  // it must be re-derived from the file itself. The base block ends either
  // after its coefficients (legacy save_binary output) or after a full
  // packed-symplectic tail (spill_pauli_set output); whichever end position
  // lets a chain of well-formed append segments run exactly to EOF is the
  // truth. Trusting the cached header — or inferring the tail from file
  // size alone — misreads any file that has been appended to.
  const std::uint64_t coefs_end =
      kHeaderBytes +
      base_count * (words3_ * sizeof(std::uint64_t) + sizeof(double));
  const std::uint64_t tail_end =
      coefs_end + base_count * 2 * words2_ * sizeof(std::uint64_t);

  // A checksum trailer encountered while walking, with the byte range it
  // covers; verified after the walk that wins is known.
  struct TrailerSpan {
    std::uint64_t begin = 0, end = 0, sum = 0;
  };

  // Walks the append-segment chain from `start` to EOF; returns false on
  // any structural mismatch (bad magic, section overrunning the file).
  // Checksum trailers may follow the base block and any segment; legacy
  // files simply have none.
  const auto walk_segments = [&](std::uint64_t start,
                                 std::vector<Segment>& out,
                                 std::vector<TrailerSpan>& sums) {
    out.clear();
    sums.clear();
    if (start > file_bytes) return false;
    std::uint64_t pos = start;
    std::uint64_t cover_begin = 0;  // a trailer at `start` covers the base
    std::size_t next_id = base_count;
    while (pos < file_bytes) {
      if (file_bytes - pos < kSegmentHeaderBytes) return false;
      in.clear();
      in.seekg(static_cast<std::streamoff>(pos));
      std::uint64_t magic = 0, second = 0;
      in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
      in.read(reinterpret_cast<char*>(&second), sizeof(second));
      if (!in) return false;
      if (magic == kTrailerMagic) {
        sums.push_back({cover_begin, pos, second});
        pos += kTrailerBytes;
        cover_begin = pos;
        continue;
      }
      if (magic != kAppendMagic) return false;
      const std::uint64_t count = second;
      cover_begin = pos;  // a trailing checksum covers this whole segment
      Segment seg;
      seg.begin = next_id;
      seg.count = static_cast<std::size_t>(count);
      seg.words3_offset = pos + kSegmentHeaderBytes;
      seg.coefs_offset =
          seg.words3_offset + count * words3_ * sizeof(std::uint64_t);
      seg.packed_offset = seg.coefs_offset + count * sizeof(double);
      const std::uint64_t end =
          seg.packed_offset + count * 2 * words2_ * sizeof(std::uint64_t);
      if (end > file_bytes) return false;
      out.push_back(seg);
      next_id += seg.count;
      pos = end;
    }
    return true;
  };

  Segment base;
  base.begin = 0;
  base.count = base_count;
  base.words3_offset = kHeaderBytes;
  base.coefs_offset =
      kHeaderBytes + base_count * words3_ * sizeof(std::uint64_t);

  std::vector<Segment> appended;
  std::vector<TrailerSpan> trailers;
  bool base_has_packed;
  if (walk_segments(tail_end, appended, trailers)) {
    base.packed_offset = base_count > 0 ? coefs_end : 0;
    base_has_packed = true;
  } else if (walk_segments(coefs_end, appended, trailers)) {
    base.packed_offset = 0;
    base_has_packed = base_count == 0;  // vacuously packed when empty
  } else {
    throw std::runtime_error(
        "ChunkedPauliReader: unrecognized trailing bytes in " + path_ +
        " (truncated append segment or corrupt packed tail)");
  }

  // Torn-write detection: every trailer the winning walk found must match
  // the bytes it covers. One sequential pass on reopen buys the guarantee
  // that no silently corrupted chunk is ever served to a solve.
  for (const TrailerSpan& t : trailers) {
    if (fnv_stream_range(in, t.begin, t.end, path_) != t.sum) {
      throw std::runtime_error(
          "ChunkedPauliReader: checksum mismatch in " + path_ +
          " (torn or corrupt spill segment)");
    }
  }

  segments_.push_back(base);
  segments_.insert(segments_.end(), appended.begin(), appended.end());
  num_strings_ = base_count;
  for (const Segment& seg : appended) num_strings_ += seg.count;
  if (max_strings > 0) num_strings_ = std::min(num_strings_, max_strings);
  has_packed_ = base_has_packed;  // append segments always carry packed
}

std::size_t ChunkedPauliReader::resident_bytes_for(
    std::size_t num_strings, std::size_t num_qubits) noexcept {
  // Matches PauliSet::logical_bytes(): 3-bit words + symplectic planes +
  // coefficients.
  const std::size_t w3 = words_per_string3(num_qubits);
  const std::size_t w2 = words_per_string2(num_qubits);
  return num_strings *
         ((w3 + 2 * w2) * sizeof(std::uint64_t) + sizeof(double));
}

std::size_t ChunkedPauliReader::chunk_resident_bytes(
    std::size_t chunk) const noexcept {
  return resident_bytes_for(chunk_size(chunk), num_qubits_);
}

std::size_t ChunkedPauliReader::chunk_packed_resident_bytes(
    std::size_t chunk) const noexcept {
  return chunk_size(chunk) * 2 * words2_ * sizeof(std::uint64_t);
}

void ChunkedPauliReader::note_load(std::size_t chunk,
                                   std::size_t bytes) const {
  ++chunk_loads_;
  if (loaded_.empty()) loaded_.resize(num_chunks(), false);
  if (loaded_[chunk]) {
    ++re_reads_;
    obs::count(obs::Counter::ChunkReReads);
  } else {
    loaded_[chunk] = true;
  }
  obs::count(obs::Counter::SpillBytesRead, bytes);
}

void ChunkedPauliReader::read_span(std::istream& in, Section section,
                                   std::size_t begin, std::size_t count,
                                   char* dest) const {
  PICASSO_FAILPOINT("spill.read");
  std::size_t stride = 0;
  switch (section) {
    case Section::Words3: stride = words3_ * sizeof(std::uint64_t); break;
    case Section::Coefs: stride = sizeof(double); break;
    case Section::Packed: stride = 2 * words2_ * sizeof(std::uint64_t); break;
  }
  const std::size_t end = begin + count;
  for (const Segment& seg : segments_) {
    const std::size_t lo = std::max(begin, seg.begin);
    const std::size_t hi = std::min(end, seg.begin + seg.count);
    if (lo >= hi) continue;
    std::uint64_t offset = 0;
    switch (section) {
      case Section::Words3: offset = seg.words3_offset; break;
      case Section::Coefs: offset = seg.coefs_offset; break;
      case Section::Packed: offset = seg.packed_offset; break;
    }
    if (section == Section::Packed && offset == 0) {
      throw std::runtime_error(
          "ChunkedPauliReader: segment without packed records in " + path_);
    }
    in.clear();
    in.seekg(static_cast<std::streamoff>(offset + (lo - seg.begin) * stride));
    in.read(dest + (lo - begin) * stride,
            static_cast<std::streamsize>((hi - lo) * stride));
    if (!in) {
      throw std::runtime_error("ChunkedPauliReader: truncated chunk in " +
                               path_);
    }
  }
}

PauliSet ChunkedPauliReader::load_chunk(std::size_t chunk) const {
  const std::size_t begin = chunk_begin(chunk);
  const std::size_t count = chunk_size(chunk);
  if (count == 0) return PauliSet{};

  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ChunkedPauliReader: cannot reopen " + path_);
  }
  std::vector<std::uint64_t> packed(count * words3_);
  read_span(in, Section::Words3, begin, count,
            reinterpret_cast<char*>(packed.data()));
  std::vector<double> coefs(count);
  read_span(in, Section::Coefs, begin, count,
            reinterpret_cast<char*>(coefs.data()));

  note_load(chunk, packed.size() * sizeof(std::uint64_t) +
                       coefs.size() * sizeof(double));
  return PauliSet::from_words3(num_qubits_, std::move(packed),
                               std::move(coefs));
}

PackedPauliSet ChunkedPauliReader::load_chunk_packed(std::size_t chunk) const {
  const std::size_t begin = chunk_begin(chunk);
  const std::size_t count = chunk_size(chunk);
  if (count == 0) return PackedPauliSet{};

  if (!has_packed_) {
    // Legacy spill without the packed tail: decode the 3-bit section.
    // load_chunk counts the load.
    return PackedPauliSet(load_chunk(chunk));
  }
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ChunkedPauliReader: cannot reopen " + path_);
  }
  std::vector<std::uint64_t> words(count * 2 * words2_);
  read_span(in, Section::Packed, begin, count,
            reinterpret_cast<char*>(words.data()));
  note_load(chunk, words.size() * sizeof(std::uint64_t));
  return PackedPauliSet::from_raw(num_qubits_, count, std::move(words));
}

std::size_t append_pauli_set(const PauliSet& delta, const std::string& path) {
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("append_pauli_set: cannot open " + path);
    }
    if (read_pod<std::uint64_t>(in) != kMagic) {
      throw std::runtime_error("append_pauli_set: bad magic in " + path);
    }
    const auto base_qubits =
        static_cast<std::size_t>(read_pod<std::uint64_t>(in));
    if (!delta.empty() && base_qubits != delta.num_qubits()) {
      throw std::invalid_argument("append_pauli_set: qubit count mismatch");
    }
  }
  std::error_code ec;
  if (delta.empty()) {
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) throw std::runtime_error("append_pauli_set: cannot stat " + path);
    return static_cast<std::size_t>(size);
  }

  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    throw std::runtime_error("append_pauli_set: cannot append to " + path);
  }
  errno = 0;
  const std::size_t count = delta.size();
  const std::size_t words3 = delta.words_per_string();
  write_pod(out, kAppendMagic);
  write_pod(out, static_cast<std::uint64_t>(count));
  out.write(reinterpret_cast<const char*>(delta.encoded3(0)),
            static_cast<std::streamsize>(count * words3 *
                                         sizeof(std::uint64_t)));
  out.write(reinterpret_cast<const char*>(delta.coefficients().data()),
            static_cast<std::streamsize>(count * sizeof(double)));
  const PackedView view = delta.packed_view();
  const std::size_t packed_words_total = view.size * 2 * view.words;
  const std::size_t packed_bytes = packed_words_total * sizeof(std::uint64_t);
  // Failpoint "spill.append": same contract as "spill.write" — short:N
  // leaves a torn segment with no trailer for reopen to reject.
  const std::size_t packed_written = PICASSO_FAILPOINT_CLAMP("spill.append",
                                                             packed_bytes);
  out.write(reinterpret_cast<const char*>(view.data),
            static_cast<std::streamsize>(packed_written));
  if (packed_written == packed_bytes) {
    std::uint64_t sum = util::kFnvOffsetBasis;
    sum = util::fnv1a_u64(sum, kAppendMagic);
    sum = util::fnv1a_u64(sum, static_cast<std::uint64_t>(count));
    sum = util::fnv1a_bytes(sum, delta.encoded3(0),
                            count * words3 * sizeof(std::uint64_t));
    sum = util::fnv1a_bytes(sum, delta.coefficients().data(),
                            count * sizeof(double));
    sum = util::fnv1a_bytes(sum, view.data, packed_bytes);
    write_pod(out, kTrailerMagic);
    write_pod(out, sum);
  }
  out.flush();
  if (!out) throw_write_failure("append_pauli_set", path);
  const std::size_t segment_bytes =
      kSegmentHeaderBytes +
      count * (words3 * sizeof(std::uint64_t) + sizeof(double)) +
      packed_words_total * sizeof(std::uint64_t);
  obs::count(obs::Counter::SpillBytesWritten, segment_bytes);
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("append_pauli_set: cannot stat " + path);
  return static_cast<std::size_t>(size);
}

void write_spill_colors(const std::string& path,
                        const util::PackedColorArray& colors) {
  // Serialize to memory first so the checksum covers exactly the blob
  // bytes; the trailer makes a torn color sidecar detectable on reload.
  std::ostringstream blob(std::ios::binary);
  colors.save(blob);
  const std::string bytes = std::move(blob).str();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_spill_colors: cannot open " + path);
  }
  errno = 0;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  write_pod(out, kTrailerMagic);
  write_pod(out, util::fnv1a_bytes(util::kFnvOffsetBasis, bytes.data(),
                                   bytes.size()));
  out.flush();
  if (!out) throw_write_failure("write_spill_colors", path);
}

util::PackedColorArray read_spill_colors(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_spill_colors: cannot open " + path);
  }
  std::ostringstream buf(std::ios::binary);
  buf << in.rdbuf();
  std::string bytes = std::move(buf).str();
  std::size_t body = bytes.size();
  if (bytes.size() >= kTrailerBytes) {
    std::uint64_t magic = 0, sum = 0;
    std::memcpy(&magic, bytes.data() + bytes.size() - kTrailerBytes,
                sizeof(magic));
    std::memcpy(&sum, bytes.data() + bytes.size() - sizeof(sum), sizeof(sum));
    if (magic == kTrailerMagic) {
      body = bytes.size() - kTrailerBytes;
      if (util::fnv1a_bytes(util::kFnvOffsetBasis, bytes.data(), body) !=
          sum) {
        throw std::runtime_error(
            "read_spill_colors: checksum mismatch in " + path +
            " (torn or corrupt color sidecar)");
      }
    }
  }
  std::istringstream blob(bytes.substr(0, body), std::ios::binary);
  return util::PackedColorArray::load(blob);
}

}  // namespace picasso::pauli
