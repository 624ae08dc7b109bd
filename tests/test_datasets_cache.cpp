// Regression coverage for the dataset disk cache's corrupt-entry
// fall-through (pauli/datasets.cpp): a truncated, garbled, or empty cached
// .pset must be silently regenerated — never crash the loader or serve a
// wrong set — and the regenerated set must be identical to a fresh build.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "api/session.hpp"
#include "pauli/datasets.hpp"
#include "pauli/pauli_set.hpp"

namespace pp = picasso::pauli;
namespace fs = std::filesystem;

namespace {

class DatasetCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("picasso_dscache_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    ::setenv("PICASSO_DATA_DIR", dir_.c_str(), 1);
    pp::clear_dataset_cache();
  }

  void TearDown() override {
    pp::clear_dataset_cache();
    ::unsetenv("PICASSO_DATA_DIR");
    fs::remove_all(dir_);
  }

  /// A deliberately tiny recipe so generation stays fast even when every
  /// test case regenerates it.
  static pp::DatasetSpec tiny_spec() {
    pp::MoleculeSpec molecule;
    molecule.num_atoms = 2;
    molecule.geometry = pp::Geometry::Chain1D;
    molecule.basis = pp::Basis::STO3G;
    pp::DatasetSpec spec;
    spec.name = molecule.name() + "_cache_test";
    spec.molecule = molecule;
    spec.size_class = pp::SizeClass::Small;
    spec.cap = 64;
    spec.with_ansatz = false;
    return spec;
  }

  fs::path cached_file() const {
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".pset") return entry.path();
    }
    return {};
  }

  static std::uint64_t fingerprint(const pp::PauliSet& set) {
    return picasso::api::problem_fingerprint(set,
                                             picasso::core::PicassoParams{});
  }

  fs::path dir_;
};

}  // namespace

TEST_F(DatasetCacheTest, GeneratesThenServesFromDiskCache) {
  const pp::DatasetSpec spec = tiny_spec();
  const pp::PauliSet& fresh = pp::load_dataset(spec);
  ASSERT_GT(fresh.size(), 0u);
  const std::uint64_t expected = fingerprint(fresh);
  const fs::path file = cached_file();
  ASSERT_FALSE(file.empty()) << "no cache file written";

  // A second process (simulated by dropping the memo) loads from disk and
  // gets the identical set.
  pp::clear_dataset_cache();
  const pp::PauliSet& from_disk = pp::load_dataset(spec);
  EXPECT_EQ(fingerprint(from_disk), expected);
}

TEST_F(DatasetCacheTest, TruncatedCacheEntryRegenerates) {
  const pp::DatasetSpec spec = tiny_spec();
  const std::uint64_t expected = fingerprint(pp::load_dataset(spec));
  const fs::path file = cached_file();
  ASSERT_FALSE(file.empty());

  pp::clear_dataset_cache();
  fs::resize_file(file, fs::file_size(file) / 2);
  const pp::PauliSet& recovered = pp::load_dataset(spec);
  EXPECT_EQ(fingerprint(recovered), expected);

  // The regenerated set was re-cached whole: the next cold load reads a
  // healthy file.
  pp::clear_dataset_cache();
  EXPECT_GT(fs::file_size(cached_file()), 0u);
  EXPECT_EQ(fingerprint(pp::load_dataset(spec)), expected);
}

TEST_F(DatasetCacheTest, GarbledMagicRegenerates) {
  const pp::DatasetSpec spec = tiny_spec();
  const std::uint64_t expected = fingerprint(pp::load_dataset(spec));
  const fs::path file = cached_file();
  ASSERT_FALSE(file.empty());

  pp::clear_dataset_cache();
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    const char junk[8] = {'j', 'u', 'n', 'k', 'j', 'u', 'n', 'k'};
    f.write(junk, sizeof(junk));
  }
  EXPECT_EQ(fingerprint(pp::load_dataset(spec)), expected);
}

TEST_F(DatasetCacheTest, EmptyCacheFileRegenerates) {
  const pp::DatasetSpec spec = tiny_spec();
  const std::uint64_t expected = fingerprint(pp::load_dataset(spec));
  const fs::path file = cached_file();
  ASSERT_FALSE(file.empty());

  pp::clear_dataset_cache();
  { std::ofstream truncate(file, std::ios::binary | std::ios::trunc); }
  EXPECT_EQ(fingerprint(pp::load_dataset(spec)), expected);
}

TEST_F(DatasetCacheTest, OverclaimingHeaderRegenerates) {
  const pp::DatasetSpec spec = tiny_spec();
  const std::uint64_t expected = fingerprint(pp::load_dataset(spec));
  const fs::path file = cached_file();
  ASSERT_FALSE(file.empty());

  // A cache file that is just a header claiming 2^40 strings: the loader
  // must refuse it before allocating, and regenerate.
  pp::clear_dataset_cache();
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    const std::uint64_t header[3] = {0x5041554c49534554ULL,  // "PAULISET"
                                     12, std::uint64_t{1} << 40};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
  }
  EXPECT_EQ(fingerprint(pp::load_dataset(spec)), expected);
}
