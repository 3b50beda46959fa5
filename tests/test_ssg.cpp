// Golden-file round-trip tests for the `.ssg` binary CSR format: owned and
// mmap'd loads must reproduce the in-memory Graph exactly, and corrupted or
// truncated files must throw rather than hand back garbage. The checksums
// are pinned here too (XXH64 against libxxhash's vectors, a v3 header
// golden, read-only v1 files, rejected v2 files), and a time-boxed
// randomized corruption fuzz over v1 and v3 files (SSMIS_FUZZ_SECONDS) runs
// in CI, under ASan too.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/resource.h>
#endif

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/ssg.hpp"
#include "support/hash.hpp"

namespace ssmis {
namespace {

class SsgTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ssmis_ssg_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

 public:
  static std::vector<char> read_all(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  static void write_all(const std::string& p, const std::vector<char>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Recomputes the header checksum over tampered payload bytes, simulating
  // an external writer whose file is self-consistent but structurally wrong:
  // byte-wise FNV-1a for a v1 file, otherwise v3's XXH64 chain over the
  // shape (header bytes 16-31), the offsets and the adjacency.
  static void refresh_checksum(std::vector<char>& bytes) {
    std::uint32_t version = 0;
    std::int64_t n = 0, adj_len = 0;
    std::memcpy(&version, bytes.data() + 8, sizeof(version));
    std::memcpy(&n, bytes.data() + 16, sizeof(n));
    std::memcpy(&adj_len, bytes.data() + 24, sizeof(adj_len));
    const char* shape = bytes.data() + 16;
    const char* offsets = bytes.data() + io::kSsgHeaderBytes;
    const auto offset_bytes = static_cast<std::size_t>(8 * (n + 1));
    const char* adj = offsets + offset_bytes;
    const auto adj_bytes = static_cast<std::size_t>(4 * adj_len);
    std::uint64_t h = 0;
    if (version == 1) {
      h = fnv1a(kFnv1aBasis, shape, 16);
      h = fnv1a(h, offsets, offset_bytes);
      h = fnv1a(h, adj, adj_bytes);
    } else {
      h = xxh64(shape, 16, 0);
      h = xxh64(offsets, offset_bytes, h);
      h = xxh64(adj, adj_bytes, h);
    }
    std::memcpy(bytes.data() + 32, &h, sizeof(h));
  }

  static void set_version(std::vector<char>& bytes, std::uint32_t version) {
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
  }

  // Turns a saved v3 file into the v1 file of the same graph, as a writer
  // before v3 produced it: same layout, version 1, FNV-1a checksum.
  static void make_v1(std::vector<char>& bytes) {
    set_version(bytes, 1);
    refresh_checksum(bytes);
  }

  // Both loaders reject `p` under `validation` with a message containing
  // `what`.
  static void expect_load_throws(
      const std::string& p, const std::string& what,
      io::SsgValidation validation = io::SsgValidation::kFull) {
    for (const bool use_mmap : {false, true}) {
      try {
        const Graph g =
            use_mmap ? io::mmap_ssg(p, validation) : io::load_ssg(p, validation);
        ADD_FAILURE() << p << " (mmap=" << use_mmap << "): accepted, expected " << what;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what() << " (mmap=" << use_mmap << "), expected " << what;
      }
    }
  }

 protected:
  std::filesystem::path dir_;
};

TEST_F(SsgTest, SaveLoadRoundTrip) {
  const Graph g = gen::gnp(500, 0.02, 11);
  const std::string p = path("a.ssg");
  io::save_ssg(p, g);
  EXPECT_EQ(static_cast<std::int64_t>(std::filesystem::file_size(p)),
            io::ssg_file_bytes(g));
  const Graph back = io::load_ssg(p);
  EXPECT_EQ(g, back);
  EXPECT_FALSE(back.is_mapped());
  EXPECT_EQ(back.storage_mode(), "owned");
}

TEST_F(SsgTest, SaveMmapRoundTrip) {
  const Graph g = gen::gnp(500, 0.02, 11);
  const std::string p = path("a.ssg");
  io::save_ssg(p, g);
  const Graph mapped = io::mmap_ssg(p);
  EXPECT_EQ(g, mapped);
  // Mapped copies share the mapping and stay valid after the original handle
  // goes away.
  Graph copy;
  {
    const Graph inner = io::mmap_ssg(p);
    copy = inner;
  }
  EXPECT_EQ(copy, g);
  EXPECT_EQ(copy.num_edges(), g.num_edges());
}

TEST_F(SsgTest, EmptyAndEdgelessGraphsRoundTrip) {
  for (const Graph& g : {Graph(), Graph::from_edges(7, {})}) {
    const std::string p = path("e.ssg");
    io::save_ssg(p, g);
    EXPECT_EQ(io::load_ssg(p), g);
    EXPECT_EQ(io::mmap_ssg(p), g);
  }
}

// libxxhash 0.8.1's XXH64 on these inputs; the 80-byte one runs the
// 32-byte stripe loop and every tail step.
TEST(Xxh64, MatchesLibxxhashVectors) {
  std::string digits;
  for (int i = 0; i < 8; ++i) digits += "1234567890";
  const struct {
    std::string input;
    std::uint64_t seed;
    std::uint64_t want;
  } cases[] = {
      {"", 0, 0xEF46DB3751D8E999ULL},
      {"a", 0, 0xD24EC4F1A98C6E5BULL},
      {"abc", 0, 0x44BC2CF5AD770999ULL},
      {"message digest", 0, 0x066ED728FCEEB3BEULL},
      {digits, 0, 0xE04A477F19EE145DULL},
      {"abc", 1, 0xBEA9CA8199328908ULL},
  };
  for (const auto& c : cases)
    EXPECT_EQ(xxh64(c.input.data(), c.input.size(), c.seed), c.want)
        << '"' << c.input << "\" seed " << c.seed;
}

// save_ssg writes v3 with the chained XXH64 checksum. The golden pins the
// header of one fixed graph, so a change to the hash, its chaining or the
// bytes it covers fails here before any cached file goes stale.
TEST_F(SsgTest, SavesVersionThreeWithGoldenChecksum) {
  const Graph g = Graph::from_edges(
      8, {{0, 2}, {0, 3}, {0, 7}, {1, 4}, {1, 7}, {2, 4}, {3, 5}, {4, 6}, {5, 6}});
  const std::string p = path("v3.ssg");
  io::save_ssg(p, g);
  const auto bytes = read_all(p);
  std::uint32_t version = 0;
  std::uint64_t checksum = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  std::memcpy(&checksum, bytes.data() + 32, sizeof(checksum));
  EXPECT_EQ(version, 3u);
  EXPECT_EQ(checksum, 0xAE5D6E86DD7B0A42ULL);
  auto refreshed = bytes;
  refresh_checksum(refreshed);
  EXPECT_EQ(refreshed, bytes);
}

// v1 is read-only now: a file a pre-v3 writer produced (same layout, FNV-1a
// checksum) loads equal to its graph through both loaders in both modes.
TEST_F(SsgTest, LegacyV1FilesStillLoad) {
  const Graph g = gen::gnp(300, 0.03, 5);
  const std::string p = path("v1.ssg");
  io::save_ssg(p, g);
  auto bytes = read_all(p);
  make_v1(bytes);
  write_all(p, bytes);
  for (const auto validation : {io::SsgValidation::kFull, io::SsgValidation::kTrusted}) {
    EXPECT_EQ(io::load_ssg(p, validation), g);
    EXPECT_EQ(io::mmap_ssg(p, validation), g);
  }
}

// Version 2 held a compressed adjacency that no reader implements any
// more. A file labelled v2 fails loudly as an unsupported version in both
// loaders, under both validation modes.
TEST_F(SsgTest, RetiredV2FilesFailAsUnsupported) {
  const std::string p = path("v2.ssg");
  io::save_ssg(p, gen::gnp(300, 0.03, 5));
  auto bytes = read_all(p);
  set_version(bytes, 2);
  write_all(p, bytes);
  for (const auto validation : {io::SsgValidation::kFull, io::SsgValidation::kTrusted})
    expect_load_throws(p, "unsupported format version 2", validation);
}

TEST_F(SsgTest, MappedGraphSupportsAllQueries) {
  const Graph g = gen::random_tree(200, 3);
  const std::string p = path("t.ssg");
  io::save_ssg(p, g);
  const Graph mapped = io::mmap_ssg(p);
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_EQ(mapped.storage_mode(), "mmap");
  EXPECT_EQ(mapped.max_degree(), g.max_degree());
  EXPECT_EQ(mapped.edge_list(), g.edge_list());
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    EXPECT_EQ(mapped.degree(u), g.degree(u));
}

// A flipped bit deep in the adjacency array fails the checksum, under v3's
// XXH64 and read-only v1's FNV-1a alike.
TEST_F(SsgTest, CorruptedAdjacencyByteThrows) {
  const Graph g = gen::gnp(300, 0.03, 5);
  const std::string p = path("c.ssg");
  io::save_ssg(p, g);
  const auto v3 = read_all(p);
  auto v1 = v3;
  make_v1(v1);
  for (auto bytes : {v3, v1}) {
    bytes[bytes.size() - 3] ^= 0x40;
    write_all(p, bytes);
    expect_load_throws(p, "checksum mismatch");
  }
}

TEST_F(SsgTest, CorruptedChecksumFieldThrows) {
  const Graph g = gen::gnp(100, 0.05, 5);
  const std::string p = path("c2.ssg");
  io::save_ssg(p, g);
  auto bytes = read_all(p);
  bytes[32] ^= 0x01;  // checksum field lives at header offset 32
  write_all(p, bytes);
  EXPECT_THROW(io::load_ssg(p), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(p), std::runtime_error);
}

TEST_F(SsgTest, StructurallyInvalidButChecksummedFileThrows) {
  // An external writer can produce a file whose checksum matches its own
  // (broken) contents; the default kFull load must still reject structural
  // violations — out-of-range ids and asymmetric rows — rather than hand
  // the engine arrays that index out of bounds or desync its counters.
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  const std::string p = path("r.ssg");

  // The checks name the audit's message: a stale checksum would throw
  // "checksum mismatch" and must not pass for these.

  // Case 1: out-of-range adjacency id.
  io::save_ssg(p, g);
  auto bytes = read_all(p);
  const Vertex huge = 9;  // >= n
  std::memcpy(bytes.data() + bytes.size() - sizeof(Vertex), &huge, sizeof(huge));
  refresh_checksum(bytes);
  write_all(p, bytes);
  expect_load_throws(p, "corrupt adjacency");

  // Case 2: asymmetric rows (row 0 claims neighbor 3, row 3 says 2).
  io::save_ssg(p, g);
  bytes = read_all(p);
  const std::size_t adj_start = io::kSsgHeaderBytes + 8 * (4 + 1);
  const Vertex three = 3;  // row 0's single entry was 1
  std::memcpy(bytes.data() + adj_start, &three, sizeof(three));
  refresh_checksum(bytes);
  write_all(p, bytes);
  expect_load_throws(p, "corrupt adjacency");
}

TEST_F(SsgTest, TrustedLoadSkipsDeepValidationButChecksOffsets) {
  const Graph g = gen::gnp(300, 0.03, 5);
  const std::string p = path("t2.ssg");
  io::save_ssg(p, g);
  // A valid file loads identically under the trusted fast path.
  EXPECT_EQ(io::mmap_ssg(p, io::SsgValidation::kTrusted), g);
  // Offsets are validated even when trusted (row iteration indexes with
  // them): a non-monotone offset still throws.
  auto bytes = read_all(p);
  const std::int64_t bogus = -5;
  std::memcpy(bytes.data() + io::kSsgHeaderBytes + 8, &bogus, sizeof(bogus));
  write_all(p, bytes);
  EXPECT_THROW(io::mmap_ssg(p, io::SsgValidation::kTrusted), std::runtime_error);
}

TEST_F(SsgTest, TruncatedFileThrows) {
  const Graph g = gen::gnp(300, 0.03, 5);
  const std::string p = path("t.ssg");
  io::save_ssg(p, g);
  auto bytes = read_all(p);
  // Truncation below the header and mid-payload must both throw.
  for (const std::size_t keep : {std::size_t{10}, bytes.size() / 2}) {
    write_all(p, std::vector<char>(bytes.begin(), bytes.begin() + keep));
    EXPECT_THROW(io::load_ssg(p), std::runtime_error) << keep;
    EXPECT_THROW(io::mmap_ssg(p), std::runtime_error) << keep;
  }
}

TEST_F(SsgTest, BadMagicAndVersionThrow) {
  const Graph g = gen::gnp(50, 0.1, 5);
  const std::string p = path("m.ssg");
  io::save_ssg(p, g);
  auto bytes = read_all(p);
  {
    auto tampered = bytes;
    tampered[0] = 'X';
    write_all(p, tampered);
    EXPECT_THROW(io::load_ssg(p), std::runtime_error);
  }
  {
    auto tampered = bytes;
    tampered[8] = 99;  // version field
    write_all(p, tampered);
    EXPECT_THROW(io::load_ssg(p), std::runtime_error);
    EXPECT_THROW(io::mmap_ssg(p), std::runtime_error);
  }
  {
    auto tampered = bytes;
    tampered[12] ^= 0xff;  // endianness tag
    write_all(p, tampered);
    EXPECT_THROW(io::load_ssg(p), std::runtime_error);
  }
}

TEST_F(SsgTest, HostileAdjLenHeaderThrows) {
  // adj_len = real + 2^62 would overflow a naive `4 * adj_len` size check
  // and sail into out-of-bounds reads; the loader must reject it loudly.
  const Graph g = gen::gnp(100, 0.05, 5);
  const std::string p = path("h.ssg");
  io::save_ssg(p, g);
  auto bytes = read_all(p);
  std::int64_t adj_len;
  std::memcpy(&adj_len, bytes.data() + 24, sizeof(adj_len));
  adj_len += (std::int64_t{1} << 62);
  std::memcpy(bytes.data() + 24, &adj_len, sizeof(adj_len));
  write_all(p, bytes);
  EXPECT_THROW(io::load_ssg(p), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(p), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(p, io::SsgValidation::kTrusted), std::runtime_error);
}

TEST_F(SsgTest, SavingOverTheMappedSourceFileIsSafe) {
  // save_ssg writes through a scratch file + rename, so saving a graph over
  // the very .ssg it is mmap'd from must neither corrupt the live mapping
  // nor the resulting file (a plain truncating write would SIGBUS here).
  const Graph g = gen::gnp(400, 0.02, 9);
  const std::string p = path("self.ssg");
  io::save_ssg(p, g);
  const Graph mapped = io::mmap_ssg(p);
  io::save_ssg(p, mapped);  // overwrite the backing file of `mapped`
  EXPECT_EQ(mapped, g);     // old mapping still intact (old inode alive)
  EXPECT_EQ(io::mmap_ssg(p), g);  // new file is complete and valid
}

TEST_F(SsgTest, TrustedRejectsMalformedHeadersLikeFull) {
  // kTrusted only skips the O(m) payload audit; everything the HEADER can
  // lie about — magic, version, endianness, counts, section sizes, offsets —
  // is validated on every load. The same corruption matrix must therefore
  // throw in both modes.
  const Graph g = gen::gnp(200, 0.04, 13);
  const std::string p = path("th.ssg");
  io::save_ssg(p, g);
  const auto pristine = read_all(p);

  using Mutate = void (*)(std::vector<char>&);
  const std::pair<const char*, Mutate> cases[] = {
      {"bad magic", [](std::vector<char>& b) { b[0] = 'Z'; }},
      {"unsupported version", [](std::vector<char>& b) { b[8] = 77; }},
      {"endianness tag", [](std::vector<char>& b) { b[12] ^= char(0xff); }},
      {"negative n",
       [](std::vector<char>& b) {
         const std::int64_t n = -4;
         std::memcpy(b.data() + 16, &n, sizeof(n));
       }},
      {"n beyond Vertex range",
       [](std::vector<char>& b) {
         const std::int64_t n = std::int64_t{1} << 40;
         std::memcpy(b.data() + 16, &n, sizeof(n));
       }},
      {"negative adj_len",
       [](std::vector<char>& b) {
         const std::int64_t a = -2;
         std::memcpy(b.data() + 24, &a, sizeof(a));
       }},
      {"truncated mid-offsets",
       [](std::vector<char>& b) { b.resize(io::kSsgHeaderBytes + 24); }},
      {"truncated mid-adjacency", [](std::vector<char>& b) { b.resize(b.size() - 5); }},
      {"non-monotone offsets",
       [](std::vector<char>& b) {
         const std::int64_t bogus = std::int64_t{1} << 50;
         std::memcpy(b.data() + io::kSsgHeaderBytes + 8, &bogus, sizeof(bogus));
       }},
  };
  for (const auto& [what, mutate] : cases) {
    auto bytes = pristine;
    mutate(bytes);
    write_all(p, bytes);
    EXPECT_THROW(io::load_ssg(p, io::SsgValidation::kTrusted), std::runtime_error)
        << what;
    EXPECT_THROW(io::mmap_ssg(p, io::SsgValidation::kTrusted), std::runtime_error)
        << what;
    EXPECT_THROW(io::load_ssg(p), std::runtime_error) << what;
    EXPECT_THROW(io::mmap_ssg(p), std::runtime_error) << what;
  }
}

#if defined(__unix__) || defined(__APPLE__)
TEST_F(SsgTest, SaveCleansUpScratchFileWhenTheWriteFails) {
  // Simulate ENOSPC-style mid-write failure with RLIMIT_FSIZE: the graph
  // below needs ~20 KB, the limit allows 4 KB, so the buffered write fails
  // at flush time (SIGXFSZ ignored so write() returns EFBIG instead of
  // killing the process). save_ssg must throw AND remove its scratch file —
  // a crash-safe writer that strands .tmp litter on every full disk isn't.
  const Graph g = gen::gnp(500, 0.02, 3);
  ASSERT_GT(io::ssg_file_bytes(g), 8192);

  struct rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit small = old_limit;
  small.rlim_cur = 4096;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);

  const std::string target = path("full_disk.ssg");
  EXPECT_THROW(io::save_ssg(target, g), std::runtime_error);

  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  std::signal(SIGXFSZ, old_handler);

  // Neither the target nor any scratch file may remain.
  EXPECT_FALSE(std::filesystem::exists(target));
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    ADD_FAILURE() << "stranded file: " << entry.path();

  // And the writer still works once space is back.
  io::save_ssg(target, g);
  EXPECT_EQ(io::load_ssg(target), g);
}
#endif

TEST_F(SsgTest, MissingFileThrows) {
  EXPECT_THROW(io::load_ssg(path("nope.ssg")), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(path("nope.ssg")), std::runtime_error);
}

TEST_F(SsgTest, LoadGraphFileDispatchesOnExtension) {
  const Graph g = gen::gnp(80, 0.05, 2);
  const std::string bin = path("g.ssg");
  io::save_ssg(bin, g);
  EXPECT_EQ(io::load_graph_file(bin, /*prefer_mmap=*/true), g);
  EXPECT_TRUE(io::load_graph_file(bin, true).is_mapped());
  EXPECT_FALSE(io::load_graph_file(bin, /*prefer_mmap=*/false).is_mapped());

  const std::string txt = path("g.edges");
  {
    std::ofstream out(txt);
    io::write_edge_list(out, g);
  }
  EXPECT_EQ(io::load_graph_file(txt), g);
}

// ---- kFull adjacency audit: first error in row-major order ----

// Two-pass transcription of the loader's adjacency audit, producing the
// exact message it must raise (empty = accept): pass 1 checks range,
// self-loops and sortedness over all rows, pass 2 then looks up the reverse
// of every entry. The binary search is exact in pass 2 because pass 1 has
// validated every row.
std::string reference_first_audit_error(const std::string& p, std::int64_t n,
                                        const std::int64_t* offsets,
                                        const Vertex* adj) {
  const auto msg = [&p](const std::string& what) { return "ssg: " + p + ": " + what; };
  for (std::int64_t u = 0; u < n; ++u) {
    for (std::int64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const Vertex v = adj[i];
      if (v < 0 || v >= n)
        return msg("corrupt adjacency (vertex id out of range at index " +
                   std::to_string(i) + ")");
      if (v == u)
        return msg("corrupt adjacency (self-loop in row " + std::to_string(u) + ")");
      if (i > offsets[u] && adj[i - 1] >= v)
        return msg("corrupt adjacency (row " + std::to_string(u) +
                   " not sorted/deduplicated)");
    }
  }
  for (std::int64_t u = 0; u < n; ++u) {
    for (std::int64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const Vertex v = adj[i];
      if (!std::binary_search(adj + offsets[static_cast<std::size_t>(v)],
                              adj + offsets[static_cast<std::size_t>(v) + 1],
                              static_cast<Vertex>(u)))
        return msg("corrupt adjacency (edge " + std::to_string(u) + "->" +
                   std::to_string(v) + " has no reverse entry)");
    }
  }
  return "";
}

// One write into a saved file's adjacency array: (adj index, new value).
using AdjWrite = std::pair<std::int64_t, Vertex>;

// Writes `g`'s saved file `saved` to `p` with `writes` applied and the
// checksum refreshed, then loads it through load_ssg and mmap_ssg (kFull):
// both must accept exactly when the transcription does, and otherwise throw
// its message. Returns that message (empty = accept).
std::string expect_audit_matches_transcription(const Graph& g,
                                               const std::vector<char>& saved,
                                               const std::string& p,
                                               const std::vector<AdjWrite>& writes,
                                               const std::string& what) {
  auto bytes = saved;
  const std::size_t adj_start =
      io::kSsgHeaderBytes + 8 * (static_cast<std::size_t>(g.num_vertices()) + 1);
  std::vector<Vertex> adj(g.adjacency().begin(), g.adjacency().end());
  for (const auto& [idx, value] : writes) {
    std::memcpy(bytes.data() + adj_start + static_cast<std::size_t>(idx) * sizeof(Vertex),
                &value, sizeof(Vertex));
    adj[static_cast<std::size_t>(idx)] = value;
  }
  SsgTest::refresh_checksum(bytes);
  SsgTest::write_all(p, bytes);
  const std::string want =
      reference_first_audit_error(p, g.num_vertices(), g.offsets().data(), adj.data());
  for (const bool use_mmap : {false, true}) {
    try {
      const Graph back = use_mmap ? io::mmap_ssg(p, io::SsgValidation::kFull)
                                  : io::load_ssg(p, io::SsgValidation::kFull);
      EXPECT_EQ(want, "") << what << " (mmap=" << use_mmap << "): accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), want) << what << " (mmap=" << use_mmap << ")";
    }
  }
  return want;
}

// Index of `x` in row u, or -1.
std::int64_t entry_index(const Graph& g, Vertex u, Vertex x) {
  const auto row = g.neighbors(u);
  const auto it = std::lower_bound(row.begin(), row.end(), x);
  if (it == row.end() || *it != x) return -1;
  return g.offsets()[static_cast<std::size_t>(u)] + (it - row.begin());
}

// Whether writing `value` over row u's entry `old` keeps the row strictly
// increasing.
bool keeps_row_sorted(const Graph& g, Vertex u, Vertex old, Vertex value) {
  const auto row = g.neighbors(u);
  const auto it = std::lower_bound(row.begin(), row.end(), old);
  return it != row.end() && *it == old && (it == row.begin() || *(it - 1) < value) &&
         (it + 1 == row.end() || value < *(it + 1));
}

// A file large enough that its rows and cursors spread far past the caches.
const Graph& audit_scale_graph() {
  static const Graph g = gen::gnp(150000, 8.0 / 150000.0, 3);
  return g;
}

TEST_F(SsgTest, AuditAcceptsLargeValidFile) {
  const Graph& g = audit_scale_graph();
  const std::string p = path("big.ssg");
  io::save_ssg(p, g);
  EXPECT_EQ(io::load_ssg(p, io::SsgValidation::kFull), g);
  EXPECT_EQ(io::mmap_ssg(p, io::SsgValidation::kFull), g);
}

TEST_F(SsgTest, AuditRejectsWithTheTranscriptionsFirstError) {
  const Graph& g = audit_scale_graph();
  const Vertex n = g.num_vertices();
  const std::int64_t endpoints = static_cast<std::int64_t>(g.adjacency().size());
  const std::int64_t late = endpoints - 1;
  const std::int64_t mid = endpoints / 2;

  // Corruption matrix: an early out-of-range id; a late and a mid one, each
  // of which also leaves an earlier row without its reverse entry (pass 1's
  // report must win); and an early+late pair (the early one must win).
  const std::vector<std::pair<const char*, std::vector<AdjWrite>>> cases = {
      {"early out-of-range", {{0, n}}},
      {"late out-of-range", {{late, n + 7}}},
      {"mid out-of-range", {{mid, static_cast<Vertex>(-3)}}},
      {"early+late, early must win", {{5, n + 1}, {late, n + 2}}},
  };
  const std::string p = path("bigbad.ssg");
  io::save_ssg(p, g);
  const auto saved = read_all(p);
  for (const auto& [what, writes] : cases)
    EXPECT_FALSE(expect_audit_matches_transcription(g, saved, p, writes, what).empty())
        << what << ": accepted by the transcription";
}

// The symmetry pass's paths, each a fixed write that keeps every row
// sorted, so only pass 2 can reject it. The graph's rows:
//   0: 2 3 7   1: 4 7   2: 0 4   3: 0 5   4: 1 2 6   5: 3 6   6: 4 5   7: 0 1
TEST_F(SsgTest, AuditNamesTheFirstAsymmetricEntry) {
  const Graph g = Graph::from_edges(
      8, {{0, 2}, {0, 3}, {0, 7}, {1, 4}, {1, 7}, {2, 4}, {3, 5}, {4, 6}, {5, 6}});
  const auto at = [&g](Vertex u, std::int64_t k) {
    return g.offsets()[static_cast<std::size_t>(u)] + k;
  };
  struct Case {
    const char* what;
    std::vector<AdjWrite> writes;
    const char* edge;  // the first asymmetric entry, "u->v"
  };
  const std::vector<Case> cases = {
      // Row 3's 0 becomes 1: row 0's announcement finds 1.
      {"reverse entry replaced, row still sorted", {{at(3, 0), 1}}, "0->3"},
      // Row 5's 6 becomes 4, which no row announces: row 5's scan starts
      // on it.
      {"extra lower entry", {{at(5, 1), 4}}, "5->4"},
      // Row 5's 6 becomes 7: its announcement runs past the last row, whose
      // 0 and 1 are matched, to the end of the array.
      {"announcement past the last row", {{at(5, 1), 7}}, "5->7"},
      // Rows 1 and 6 trade their entry 4 for each other. Row 4 then lists 1
      // unannounced before 2, so row 2's announcement misses on an entry
      // that is present; the first asymmetric entry is row 4's 1.
      {"cursor miss on a present reverse entry", {{at(1, 0), 6}, {at(6, 0), 1}}, "4->1"},
  };
  const std::string p = path("asym.ssg");
  io::save_ssg(p, g);
  const auto saved = read_all(p);
  for (const Case& c : cases)
    EXPECT_EQ(expect_audit_matches_transcription(g, saved, p, c.writes, c.what),
              "ssg: " + p + ": corrupt adjacency (edge " + c.edge + " has no reverse entry)")
        << c.what;
}

// Mutations of small graphs (isolated vertices, one dense row), each
// checksummed like an external writer would: the audit accepts exactly where
// the transcription accepts, and otherwise throws its message.
TEST_F(SsgTest, AuditMatchesTheTranscriptionOnMutations) {
  std::mt19937_64 rng(0x55e9u);
  const std::string p = path("mut.ssg");
  int mutations = 0;
  for (int graph = 0; mutations < 2000; ++graph) {
    const auto n = static_cast<Vertex>(2 + rng() % 63);
    const Vertex isolated = n / 4;  // the top quarter of ids get no edge
    const Graph base = gen::gnp(n - isolated, 0.05 + 0.3 * (graph % 4) / 4.0, rng());
    std::vector<Edge> edges = base.edge_list();
    const auto dense = static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n - isolated));
    for (Vertex v = 0; v < n - isolated; ++v)
      if (v != dense && rng() % 8 != 0) edges.emplace_back(dense, v);
    const Graph g = Graph::from_edges(n, edges);
    io::save_ssg(p, g);
    const auto saved = read_all(p);
    ASSERT_EQ(expect_audit_matches_transcription(g, saved, p, {}, "pristine"), "");
    const auto adj = g.adjacency();
    if (adj.empty()) continue;
    for (int k = 0; k < 40; ++k, ++mutations) {
      const auto i = static_cast<std::int64_t>(rng() % adj.size());
      const auto at = [&](std::int64_t j) {
        return j < 0 || j >= static_cast<std::int64_t>(adj.size())
                   ? static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n))
                   : adj[static_cast<std::size_t>(j)];
      };
      const auto u = static_cast<Vertex>(
          std::upper_bound(g.offsets().begin(), g.offsets().end(), i) -
          g.offsets().begin() - 1);
      Vertex value = 0;
      switch (rng() % 5) {
        case 0:  // anything, out of range included
          value = static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n + 4)) - 2;
          break;
        case 1:  // a neighbouring value: often still sorted
          value = adj[static_cast<std::size_t>(i)] + (rng() % 2 == 0 ? 1 : -1);
          break;
        case 2: {  // between the entry's neighbours in the array
          const Vertex lo = at(i - 1), hi = at(i + 1);
          value = std::min(lo, hi) +
                  static_cast<Vertex>(rng() % static_cast<std::uint64_t>(std::abs(hi - lo) + 1));
          break;
        }
        case 3:  // a duplicate of the previous or next entry
          value = rng() % 2 == 0 ? at(i - 1) : at(i + 1);
          break;
        default:  // a self-loop
          value = u;
          break;
      }
      expect_audit_matches_transcription(
          g, saved, p, {{i, value}},
          "graph " + std::to_string(graph) + " adj[" + std::to_string(i) +
              "] = " + std::to_string(value));
      if (HasFailure()) return;
    }
    // Neighbours a and b of v trade their entry v for each other. Both rows
    // stay sorted, row v lists a and b unannounced, and the next announcer
    // into row v misses on an entry that is present.
    for (int k = 0; k < 8; ++k) {
      const auto v = static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n));
      const auto row = g.neighbors(v);
      if (row.size() < 2) continue;
      const Vertex a = row[rng() % row.size()];
      const Vertex b = row[rng() % row.size()];
      if (a == b || entry_index(g, a, b) >= 0 || !keeps_row_sorted(g, a, v, b) ||
          !keeps_row_sorted(g, b, v, a))
        continue;
      expect_audit_matches_transcription(
          g, saved, p, {{entry_index(g, a, v), b}, {entry_index(g, b, v), a}},
          "graph " + std::to_string(graph) + ": rows " + std::to_string(a) + " and " +
              std::to_string(b) + " trade " + std::to_string(v));
      if (HasFailure()) return;
    }
  }
}

// --- randomized corruption fuzz (v1, v3) -----------------------------------

// Time-boxed: SSMIS_FUZZ_SECONDS (CI sets 30, under ASan too; the default
// keeps local ctest fast). Every mutation of a valid file must either load
// cleanly or throw std::runtime_error; whatever loads must survive a read
// of every row without leaving the file's bounds.
TEST_F(SsgTest, RandomizedCorruptionFuzzNeverCrashes) {
  double budget_seconds = 2.0;
  if (const char* env = std::getenv("SSMIS_FUZZ_SECONDS"))
    budget_seconds = std::max(0.1, std::atof(env));

  const Graph plain = gen::gnp(400, 0.02, 77);
  const std::string v3 = path("fuzz3.ssg");
  io::save_ssg(v3, plain);
  auto v1 = read_all(v3);
  make_v1(v1);
  const std::vector<std::vector<char>> originals = {v1, read_all(v3)};

  std::mt19937_64 rng(0x5567u);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(budget_seconds);
  const std::string target = path("fuzz_mut.ssg");
  std::int64_t iterations = 0, survived = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    ++iterations;
    std::vector<char> bytes = originals[rng() % originals.size()];
    switch (rng() % 4) {
      case 0:  // flip 1..8 random bytes
        for (std::uint64_t i = 0, k = 1 + rng() % 8; i < k; ++i)
          bytes[rng() % bytes.size()] ^= static_cast<char>(1 + rng() % 255);
        break;
      case 1:  // truncate at a random point
        bytes.resize(rng() % bytes.size());
        break;
      case 2:  // append random garbage
        for (std::uint64_t i = 0, k = 1 + rng() % 64; i < k; ++i)
          bytes.push_back(static_cast<char>(rng()));
        break;
      default: {  // zero a random range
        if (!bytes.empty()) {
          const std::size_t at = rng() % bytes.size();
          const std::size_t len = std::min(bytes.size() - at,
                                           static_cast<std::size_t>(1 + rng() % 128));
          std::memset(bytes.data() + at, 0, len);
        }
        break;
      }
    }
    write_all(target, bytes);
    for (const auto validation :
         {io::SsgValidation::kFull, io::SsgValidation::kTrusted}) {
      for (const bool use_mmap : {false, true}) {
        try {
          const Graph g = use_mmap ? io::mmap_ssg(target, validation)
                                   : io::load_ssg(target, validation);
          ++survived;
          // Whatever loaded must be readable row by row: every load checks
          // the offsets, so even a trusted one never points out of the file.
          std::int64_t sum = 0;
          for (Vertex u = 0; u < g.num_vertices(); ++u)
            for (const Vertex v : g.neighbors(u)) sum += v;
          (void)sum;
        } catch (const std::runtime_error&) {
          // Rejected loudly: the expected outcome for most mutations.
        }
      }
    }
  }
  // The loop must have exercised real work, and full validation must have
  // let SOME loads through only if the mutation missed every checked byte
  // (rare) — mostly this asserts "no crash over many iterations".
  EXPECT_GT(iterations, 10) << "fuzz budget too small to mean anything";
  RecordProperty("fuzz_iterations", std::to_string(iterations));
  RecordProperty("fuzz_loads_survived", std::to_string(survived));
}

}  // namespace
}  // namespace ssmis
