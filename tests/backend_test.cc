// Storage backends: memory and file implementations must behave
// identically; I/O accounting must track operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>

#include "storage/backend.h"

namespace sigma {
namespace {

Buffer bytes(const std::string& s) {
  return Buffer(s.begin(), s.end());
}

class BackendTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "memory") {
      backend_ = std::make_unique<MemoryBackend>();
    } else {
      dir_ = std::filesystem::temp_directory_path() /
             ("sigma-backend-test-" + std::to_string(::getpid()));
      std::filesystem::remove_all(dir_);
      backend_ = std::make_unique<FileBackend>(dir_);
    }
  }

  void TearDown() override {
    backend_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<StorageBackend> backend_;
  std::filesystem::path dir_;
};

TEST_P(BackendTest, PutGetRoundTrip) {
  const Buffer data = bytes("hello container");
  backend_->put("k1", ByteView{data.data(), data.size()});
  const auto got = backend_->get("k1");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);
}

TEST_P(BackendTest, GetMissingReturnsNullopt) {
  EXPECT_FALSE(backend_->get("nope").has_value());
}

TEST_P(BackendTest, ExistsReflectsState) {
  EXPECT_FALSE(backend_->exists("x"));
  const Buffer data = bytes("v");
  backend_->put("x", ByteView{data.data(), data.size()});
  EXPECT_TRUE(backend_->exists("x"));
}

TEST_P(BackendTest, OverwriteReplaces) {
  const Buffer a = bytes("aaa"), b = bytes("bb");
  backend_->put("k", ByteView{a.data(), a.size()});
  backend_->put("k", ByteView{b.data(), b.size()});
  EXPECT_EQ(*backend_->get("k"), b);
}

TEST_P(BackendTest, RemoveDeletes) {
  const Buffer a = bytes("a");
  backend_->put("k", ByteView{a.data(), a.size()});
  backend_->remove("k");
  EXPECT_FALSE(backend_->exists("k"));
  EXPECT_FALSE(backend_->get("k").has_value());
}

TEST_P(BackendTest, RemoveMissingIsNoop) {
  backend_->remove("ghost");  // must not throw
  EXPECT_FALSE(backend_->exists("ghost"));
}

TEST_P(BackendTest, KeysListsEverything) {
  const Buffer a = bytes("1");
  backend_->put("alpha", ByteView{a.data(), a.size()});
  backend_->put("beta", ByteView{a.data(), a.size()});
  auto keys = backend_->keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<std::string>{"alpha", "beta"}));
}

TEST_P(BackendTest, EmptyValueAllowed) {
  backend_->put("empty", {});
  const auto got = backend_->get("empty");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST_P(BackendTest, IoStatsCountOperations) {
  const Buffer a = bytes("12345");
  backend_->put("k", ByteView{a.data(), a.size()});
  (void)backend_->get("k");
  const IoStats stats = backend_->stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.bytes_written, 5u);
  EXPECT_EQ(stats.bytes_read, 5u);
}

TEST_P(BackendTest, LargeBlobRoundTrip) {
  Buffer big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  backend_->put("big", ByteView{big.data(), big.size()});
  EXPECT_EQ(*backend_->get("big"), big);
}

TEST_P(BackendTest, GetRangeReturnsExactBytes) {
  const Buffer data = bytes("0123456789abcdef");
  backend_->put("r", ByteView{data.data(), data.size()});
  EXPECT_EQ(*backend_->get_range("r", 0, 4), bytes("0123"));
  EXPECT_EQ(*backend_->get_range("r", 6, 5), bytes("6789a"));
  EXPECT_EQ(*backend_->get_range("r", 12, 4), bytes("cdef"));
  EXPECT_EQ(*backend_->get_range("r", 0, 16), data);
  EXPECT_TRUE(backend_->get_range("r", 16, 0)->empty());
}

TEST_P(BackendTest, GetRangeMissingKeyReturnsNullopt) {
  EXPECT_FALSE(backend_->get_range("nope", 0, 1).has_value());
}

TEST_P(BackendTest, GetRangePastEndThrows) {
  const Buffer data = bytes("short");
  backend_->put("r", ByteView{data.data(), data.size()});
  EXPECT_THROW((void)backend_->get_range("r", 3, 3), std::out_of_range);
  EXPECT_THROW((void)backend_->get_range("r", 6, 0), std::out_of_range);
  EXPECT_THROW((void)backend_->get_range("r", ~0ull, 2), std::exception);
  EXPECT_THROW((void)backend_->get_range("r", 2, ~0ull), std::exception);
}

TEST_P(BackendTest, GetRangeCountsOnlyTheRange) {
  Buffer big(64 * 1024, 7);
  backend_->put("big", ByteView{big.data(), big.size()});
  const IoStats before = backend_->stats();
  EXPECT_EQ(backend_->get_range("big", 1000, 4096)->size(), 4096u);
  const IoStats after = backend_->stats();
  EXPECT_EQ(after.reads - before.reads, 1u);
  EXPECT_EQ(after.bytes_read - before.bytes_read, 4096u);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest,
                         ::testing::Values("memory", "file"));

TEST(FileBackendTest, RejectsPathTraversalKeys) {
  const auto dir = std::filesystem::temp_directory_path() / "sigma-fb-keys";
  FileBackend backend(dir);
  const Buffer a = bytes("x");
  EXPECT_THROW(backend.put("../evil", ByteView{a.data(), a.size()}),
               std::invalid_argument);
  EXPECT_THROW(backend.put("a/b", ByteView{a.data(), a.size()}),
               std::invalid_argument);
  EXPECT_THROW(backend.put("", ByteView{a.data(), a.size()}),
               std::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, RejectsInvalidKeysOnEveryOperation) {
  const auto dir =
      std::filesystem::temp_directory_path() / "sigma-fb-badkeys";
  std::filesystem::remove_all(dir);
  FileBackend backend(dir);
  const Buffer a = bytes("x");
  for (const std::string& key :
       {std::string("../evil"), std::string("a/b"), std::string(""),
        // The in-progress temp suffix is reserved for atomic writes.
        std::string("container-1") + std::string(FileBackend::kTmpSuffix)}) {
    EXPECT_THROW(backend.put(key, ByteView{a.data(), a.size()}),
                 std::invalid_argument)
        << key;
    EXPECT_THROW((void)backend.get(key), std::invalid_argument) << key;
    EXPECT_THROW((void)backend.exists(key), std::invalid_argument) << key;
    EXPECT_THROW(backend.remove(key), std::invalid_argument) << key;
  }
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, UnusableDataDirRefused) {
  // A regular file where the data directory should be: construction must
  // fail loudly instead of scribbling next to it.
  const auto path =
      std::filesystem::temp_directory_path() / "sigma-fb-notadir";
  std::filesystem::remove_all(path);
  {
    std::ofstream out(path);
    out << "occupied";
  }
  EXPECT_THROW(FileBackend backend(path), std::filesystem::filesystem_error);
  std::filesystem::remove_all(path);
}

TEST(FileBackendTest, PutIntoVanishedDirThrows) {
  const auto dir =
      std::filesystem::temp_directory_path() / "sigma-fb-vanished";
  std::filesystem::remove_all(dir);
  FileBackend backend(dir);
  std::filesystem::remove_all(dir);  // yank the directory out from under it
  const Buffer a = bytes("x");
  EXPECT_THROW(backend.put("k", ByteView{a.data(), a.size()}),
               std::runtime_error);
}

TEST(FileBackendTest, KeysSkipForeignDirsAndTempFiles) {
  const auto dir =
      std::filesystem::temp_directory_path() / "sigma-fb-foreign";
  std::filesystem::remove_all(dir);
  FileBackend backend(dir);
  const Buffer a = bytes("1");
  backend.put("container-0", ByteView{a.data(), a.size()});
  // Foreign content dropped into the data dir by other tooling.
  std::filesystem::create_directory(dir / "lost+found");
  {
    std::ofstream out(dir / "NOTES.txt");
    out << "operator scribbles";
  }
  {
    std::ofstream out(dir /
                      ("half-written" + std::string(FileBackend::kTmpSuffix)));
    out << "torn";
  }
  auto keys = backend.keys();
  std::sort(keys.begin(), keys.end());
  // Subdirectories and in-progress temps are not keys; foreign regular
  // files are listed (and ignored by recovery), not silently hidden.
  EXPECT_EQ(keys, (std::vector<std::string>{"NOTES.txt", "container-0"}));
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, StaleTempFilesSweptOnConstruction) {
  const auto dir = std::filesystem::temp_directory_path() / "sigma-fb-sweep";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto stale =
      dir / ("container-7" + std::string(FileBackend::kTmpSuffix));
  {
    std::ofstream out(stale);
    out << "crashed mid-put";
  }
  FileBackend backend(dir);
  EXPECT_FALSE(std::filesystem::exists(stale));
  EXPECT_TRUE(backend.keys().empty());
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, OverwriteIsAtomicReplacement) {
  // put over an existing key goes through the same temp+rename path: the
  // old value stays intact until the new one is complete, and afterwards
  // only the new value is visible (no truncate-then-write window).
  const auto dir = std::filesystem::temp_directory_path() / "sigma-fb-atomic";
  std::filesystem::remove_all(dir);
  FileBackend backend(dir);
  const Buffer big = bytes("the first, much longer, value");
  const Buffer small = bytes("v2");
  backend.put("k", ByteView{big.data(), big.size()});
  backend.put("k", ByteView{small.data(), small.size()});
  EXPECT_EQ(*backend.get("k"), small);
  EXPECT_EQ(backend.keys().size(), 1u);  // no temp residue
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, FsyncPolicyRoundTrips) {
  const auto dir = std::filesystem::temp_directory_path() / "sigma-fb-fsync";
  std::filesystem::remove_all(dir);
  FileBackend backend(dir, /*fsync=*/true);
  EXPECT_TRUE(backend.fsync_enabled());
  const Buffer a = bytes("durable bytes");
  backend.put("k", ByteView{a.data(), a.size()});
  EXPECT_EQ(*backend.get("k"), a);
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, PersistsAcrossInstances) {
  const auto dir = std::filesystem::temp_directory_path() / "sigma-fb-persist";
  std::filesystem::remove_all(dir);
  {
    FileBackend backend(dir);
    const Buffer a = bytes("durable");
    backend.put("k", ByteView{a.data(), a.size()});
  }
  {
    FileBackend backend(dir);
    const auto got = backend.get("k");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, bytes("durable"));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sigma
