// Compressed adjacency codec battery.
//
// Three layers of defense are pinned here:
//   1. Round-trip properties: compress(decompress) == identity over every
//      graph family the generators produce (gnp/gnm/trees/regular, star
//      rows, degree-0 rows, empty graphs, n up to 10^5), with every
//      decode-aware query (neighbors-with-scratch, for_each_neighbor,
//      RowStream, degree, has_edge, edge_list) agreeing with the plain twin.
//   2. The streaming compress sink: CsrBuilder::from_source_compressed is
//      structurally identical to compressing the plain build, at any chunk
//      size, and rejects non-replayable sources like the plain builder.
//   3. Hostile input: a corruption matrix over `.ssg` v2 (bad flag, bad
//      superblock, truncation at every section, varint overrun, hostile
//      degree, index/offset mismatch, asymmetric payload, checksum) that
//      must throw std::runtime_error — never crash, never read out of
//      bounds (the CI ASan/UBSan jobs run this file). The randomized
//      corruption fuzz over every .ssg version lives in tests/test_ssg.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/compressed.hpp"
#include "graph/csr_builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ssg.hpp"
#include "support/hash.hpp"

namespace ssmis {
namespace {

// Every decode-aware query on the compressed twin must agree with the
// plain-storage original.
void expect_equivalent(const Graph& plain, const Graph& comp) {
  ASSERT_TRUE(comp.is_compressed());
  ASSERT_FALSE(plain.is_compressed());
  EXPECT_EQ(comp.num_vertices(), plain.num_vertices());
  EXPECT_EQ(comp.num_edges(), plain.num_edges());
  EXPECT_EQ(comp.max_degree(), plain.max_degree());
  EXPECT_TRUE(comp == plain);
  EXPECT_TRUE(plain == comp);
  EXPECT_TRUE(Graph::decompress(comp) == plain);
  EXPECT_EQ(comp.edge_list(), plain.edge_list());
  EXPECT_EQ(comp.summary(), plain.summary());

  NeighborScratch scratch, stream_scratch;
  Graph::RowStream rows(comp);
  for (Vertex u = 0; u < plain.num_vertices(); ++u) {
    ASSERT_EQ(comp.degree(u), plain.degree(u)) << u;
    const auto expected = plain.neighbors(u);
    const auto via_scratch = comp.neighbors(u, scratch);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), via_scratch.begin(),
                           via_scratch.end()))
        << u;
    std::vector<Vertex> via_visit;
    comp.for_each_neighbor(u, [&](Vertex v) { via_visit.push_back(v); });
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), via_visit.begin(),
                           via_visit.end()))
        << u;
    const auto via_stream = rows.next(stream_scratch);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), via_stream.begin(),
                           via_stream.end()))
        << u;
  }
}

TEST(CompressedCodec, RoundTripAcrossFamilies) {
  const std::vector<Graph> graphs = {
      gen::gnp(100000, 8.0 / 100000.0, 5),   // the target regime, n = 10^5
      gen::gnp(300, 0.05, 7),                // small + denser
      gen::gnm(5000, 20000, 9),
      gen::random_tree(4000, 11),
      gen::random_regular(2000, 6, 13),
      gen::star(10000),                      // one huge row + 10^4 - 1 leaves
      gen::path(97),
      gen::complete(50),
      Graph::from_edges(64, {{0, 1}, {0, 63}}),  // mostly degree-0 rows
      Graph::from_edges(7, {}),                  // all rows degree 0
      Graph(),                                   // n = 0
  };
  for (const Graph& g : graphs) expect_equivalent(g, Graph::compress(g));
}

TEST(CompressedCodec, CompressAndDecompressAreIdempotentHandles) {
  const Graph g = gen::gnp(500, 0.02, 3);
  const Graph c = Graph::compress(g);
  // Re-compressing / re-decompressing matching storage shares, not copies.
  EXPECT_EQ(Graph::compress(c).compressed_payload().data(),
            c.compressed_payload().data());
  EXPECT_EQ(Graph::decompress(g).offsets().data(), g.offsets().data());
}

TEST(CompressedCodec, ForEachNeighborEarlyExitStops) {
  const Graph c = Graph::compress(gen::complete(20));
  int seen = 0;
  c.for_each_neighbor(0, [&](Vertex) { return ++seen < 5; });
  EXPECT_EQ(seen, 5);
  // Void visitors see everything.
  seen = 0;
  c.for_each_neighbor(0, [&](Vertex) { ++seen; });
  EXPECT_EQ(seen, 19);
}

TEST(CompressedCodec, RowStreamSkipKeepsAlignment) {
  const Graph g = gen::gnp(2000, 0.01, 17);
  const Graph c = Graph::compress(g);
  // Alternate skip/next in a fixed pattern; next() must still return the
  // row of the vertex the stream says it is on.
  NeighborScratch scratch;
  Graph::RowStream rows(c);
  std::mt19937 rng(42);
  while (rows.row() < c.num_vertices()) {
    const Vertex u = rows.row();
    if (rng() % 3 == 0) {
      rows.skip();
      continue;
    }
    const auto got = rows.next(scratch);
    const auto want = g.neighbors(u);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end())) << u;
  }
}

TEST(CompressedCodec, RawAccessorsThrowAcrossStorageModes) {
  const Graph g = gen::path(10);
  const Graph c = Graph::compress(g);
  NeighborScratch scratch;
  EXPECT_THROW((void)c.neighbors(3), std::logic_error);
  EXPECT_THROW((void)c.offsets(), std::logic_error);
  EXPECT_THROW((void)c.adjacency(), std::logic_error);
  EXPECT_THROW((void)g.compressed_index(), std::logic_error);
  EXPECT_THROW((void)g.compressed_payload(), std::logic_error);
  // The decode-aware paths work on both.
  EXPECT_EQ(c.neighbors(3, scratch).size(), 2u);
  EXPECT_EQ(g.neighbors(3, scratch).size(), 2u);
}

TEST(CompressedCodec, HasEdgeAgreesWithPlain) {
  const Graph g = gen::gnp(400, 0.03, 23);
  const Graph c = Graph::compress(g);
  for (const auto& [u, v] : g.edge_list()) {
    ASSERT_TRUE(c.has_edge(u, v));
    ASSERT_TRUE(c.has_edge(v, u));
  }
  std::mt19937 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const Vertex u = static_cast<Vertex>(rng() % 400);
    const Vertex v = static_cast<Vertex>(rng() % 400);
    ASSERT_EQ(c.has_edge(u, v), g.has_edge(u, v)) << u << "," << v;
  }
  EXPECT_FALSE(c.has_edge(-1, 3));
  EXPECT_FALSE(c.has_edge(3, 400));
  EXPECT_FALSE(c.has_edge(3, 3));
}

TEST(CompressedCodec, EncoderRejectsInvalidRows) {
  const Vertex bad_rows[][3] = {
      {3, 2, 1},  // not sorted
      {2, 2, 3},  // duplicate
      {0, 1, 2},  // self-loop (row 0)
      {1, 2, 9},  // out of range for n = 5
  };
  for (const auto& row : bad_rows) {
    CompressedAdjacencyEncoder enc(5);
    EXPECT_THROW(enc.add_row({row, 3}), std::invalid_argument);
  }
  {
    CompressedAdjacencyEncoder enc(1);
    enc.add_row({});
    EXPECT_THROW(enc.add_row({}), std::logic_error);  // more rows than n
  }
  {
    CompressedAdjacencyEncoder enc(2);
    enc.add_row({});
    EXPECT_THROW(std::move(enc).finish(), std::logic_error);  // a row short
  }
  EXPECT_THROW(CompressedAdjacencyEncoder(-1), std::invalid_argument);
}

// --- the streaming compress sink -------------------------------------------

TEST(CompressedCodec, SinkMatchesCompressOfPlainBuildAtAnyChunkSize) {
  const Vertex n = 3000;
  // A deliberately rude source: duplicates, both orientations, descending
  // endpoint order — everything the plain builder already tolerates.
  const auto source = [n](auto&& emit) {
    for (Vertex u = n - 1; u >= 1; --u) {
      emit(u, u - 1);
      if (u % 3 == 0) emit(u - 1, u);        // reversed duplicate
      if (u % 5 == 0) emit(u, u - 1);        // exact duplicate
      if (u >= 10 && u % 7 == 0) emit(u, u - 10);
      emit(u, u);                             // self-loop, dropped
    }
  };
  const Graph reference = Graph::compress(CsrBuilder::from_source(n, source));
  for (const std::int64_t chunk : {std::int64_t{64}, std::int64_t{1021},
                                   std::int64_t{1} << 20}) {
    const Graph c = CsrBuilder::from_source_compressed(n, source, chunk);
    ASSERT_TRUE(c == reference) << "chunk=" << chunk;
  }
  EXPECT_THROW(CsrBuilder::from_source_compressed(n, source, 0),
               std::invalid_argument);
  EXPECT_THROW(CsrBuilder::from_source_compressed(-1, source),
               std::invalid_argument);
}

TEST(CompressedCodec, SinkRejectsNonReplayableSources) {
  int pass = 0;
  const auto drifting = [&pass](auto&& emit) {
    // Emits a different edge set on every invocation.
    ++pass;
    for (Vertex u = 0; u + 1 < 100; ++u)
      if ((u + pass) % 2 == 0) emit(u, u + 1);
  };
  EXPECT_THROW(CsrBuilder::from_source_compressed(100, drifting, 64),
               std::logic_error);
  // Opaque endpoint: keeps GCC from constant-folding the doomed emit into a
  // (never-executed) out-of-bounds degrees increment and warning about it.
  const Vertex hostile_endpoint = []() -> Vertex {
    volatile Vertex v = 100;
    return v;
  }();
  const auto out_of_range = [hostile_endpoint](auto&& emit) {
    emit(0, hostile_endpoint);
  };
  EXPECT_THROW(CsrBuilder::from_source_compressed(100, out_of_range),
               std::invalid_argument);
}

TEST(CompressedCodec, GnpCompressedMatchesGnp) {
  for (const Vertex n : {0, 1, 1000, 50000}) {
    const double p = n > 1 ? 6.0 / static_cast<double>(n) : 0.5;
    ASSERT_TRUE(gen::gnp_compressed(n, p, 29) ==
                Graph::compress(gen::gnp(n, p, 29)))
        << n;
  }
  // The closed-form edges of the p = 0 / p = 1 shortcuts.
  EXPECT_TRUE(gen::gnp_compressed(40, 0.0, 1) == gen::gnp(40, 0.0, 1));
  EXPECT_TRUE(gen::gnp_compressed(40, 1.0, 1) == gen::complete(40));
}

TEST(CompressedCodec, RandomizedRoundTripProperty) {
  std::mt19937_64 rng(20260731);
  for (int iter = 0; iter < 40; ++iter) {
    const std::uint64_t seed = rng();
    const int family = static_cast<int>(rng() % 4);
    const Vertex n = static_cast<Vertex>(2 + rng() % (iter < 36 ? 800 : 100000));
    Graph g;
    switch (family) {
      case 0: g = gen::gnp(n, std::min(1.0, 8.0 / n), seed); break;
      case 1: {
        const std::int64_t max_m = static_cast<std::int64_t>(n) * (n - 1) / 2;
        g = gen::gnm(n, std::min<std::int64_t>(3 * n, max_m), seed);
        break;
      }
      case 2: g = gen::random_tree(n, seed); break;
      default: g = gen::random_regular(n - (n % 2), 4, seed); break;
    }
    const Graph c = Graph::compress(g);
    ASSERT_TRUE(Graph::decompress(c) == g) << "family=" << family << " n=" << n;
    NeighborScratch scratch;
    for (int probes = 0; probes < 32; ++probes) {
      const Vertex u = static_cast<Vertex>(rng() % g.num_vertices());
      const auto want = g.neighbors(u);
      const auto got = c.neighbors(u, scratch);
      ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
          << "family=" << family << " n=" << n << " u=" << u;
    }
  }
}

// --- `.ssg` v2 corruption matrix -------------------------------------------

class SsgV2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ssmis_ssg2_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static std::vector<char> read_all(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  static void write_all(const std::string& p, const std::vector<char>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Recomputes the v2 header checksum over (possibly tampered) bytes,
  // simulating a self-consistent external writer — structural validation,
  // not the checksum, must catch these.
  static void refresh_v2_checksum(std::vector<char>& b) {
    std::int64_t n = 0, adj_len = 0;
    std::uint64_t flags = 0, payload_bytes = 0, superblock = 0;
    std::memcpy(&n, b.data() + 16, 8);
    std::memcpy(&adj_len, b.data() + 24, 8);
    std::memcpy(&flags, b.data() + 40, 8);
    std::memcpy(&payload_bytes, b.data() + 48, 8);
    std::memcpy(&superblock, b.data() + 56, 8);
    const std::size_t entries = cadj::index_entries(n);
    std::uint64_t h = kFnv1aBasis;
    h = fnv1a(h, &n, 8);
    h = fnv1a(h, &adj_len, 8);
    h = fnv1a(h, &flags, 8);
    h = fnv1a(h, &payload_bytes, 8);
    h = fnv1a(h, &superblock, 8);
    h = fnv1a(h, b.data() + 64, entries * 8);
    h = fnv1a(h, b.data() + 64 + entries * 8,
              static_cast<std::size_t>(payload_bytes));
    std::memcpy(b.data() + 32, &h, 8);
  }

  // Hand-builds a v2 file from raw codec arrays (for payloads the encoder
  // refuses to produce), with a self-consistent checksum.
  std::string craft_v2(const std::string& name, std::int64_t n,
                       std::int64_t adj_len,
                       const std::vector<std::uint64_t>& index,
                       const std::vector<std::uint8_t>& payload) {
    EXPECT_EQ(index.size(), cadj::index_entries(n))
        << "test bug: wrong index entry count for n=" << n;
    std::vector<char> b(64 + index.size() * 8 + payload.size(), 0);
    std::memcpy(b.data(), "SSGRAPH1", 8);
    const std::uint32_t version = io::kSsgVersionCompressed;
    const std::uint32_t endian = io::kSsgEndianTag;
    const std::uint64_t flags = io::kSsgFlagCompressed;
    const std::uint64_t payload_bytes = payload.size();
    const std::uint64_t superblock = cadj::kSuperblock;
    std::memcpy(b.data() + 8, &version, 4);
    std::memcpy(b.data() + 12, &endian, 4);
    std::memcpy(b.data() + 16, &n, 8);
    std::memcpy(b.data() + 24, &adj_len, 8);
    std::memcpy(b.data() + 40, &flags, 8);
    std::memcpy(b.data() + 48, &payload_bytes, 8);
    std::memcpy(b.data() + 56, &superblock, 8);
    std::memcpy(b.data() + 64, index.data(), index.size() * 8);
    std::memcpy(b.data() + 64 + index.size() * 8, payload.data(), payload.size());
    refresh_v2_checksum(b);
    const std::string p = path(name);
    write_all(p, b);
    return p;
  }

  // Saves a reference compressed graph and returns (path, plain twin).
  std::string save_reference(const std::string& name, Vertex n = 600,
                             double p = 0.015, std::uint64_t seed = 31) {
    plain_ = gen::gnp(n, p, seed);
    const std::string f = path(name);
    io::save_ssg(f, Graph::compress(plain_));
    return f;
  }

  // A corrupted file must throw under every loader x validation combination
  // whose always-on checks cover the tampering; `trusted_too` says the
  // corruption is in the header/index layer that even kTrusted validates.
  void expect_rejected(const std::string& p, bool trusted_too) {
    EXPECT_THROW(io::load_ssg(p), std::runtime_error) << p;
    EXPECT_THROW(io::mmap_ssg(p), std::runtime_error) << p;
    if (trusted_too) {
      EXPECT_THROW(io::load_ssg(p, io::SsgValidation::kTrusted),
                   std::runtime_error)
          << p;
      EXPECT_THROW(io::mmap_ssg(p, io::SsgValidation::kTrusted),
                   std::runtime_error)
          << p;
    }
  }

  std::filesystem::path dir_;
  Graph plain_;
};

TEST_F(SsgV2Test, SaveLoadMmapRoundTrip) {
  const std::string p = save_reference("a.ssg");
  const Graph c = Graph::compress(plain_);
  EXPECT_EQ(static_cast<std::int64_t>(std::filesystem::file_size(p)),
            io::ssg_file_bytes(c));
  const Graph owned = io::load_ssg(p);
  EXPECT_TRUE(owned.is_compressed());
  EXPECT_FALSE(owned.is_mapped());
  EXPECT_TRUE(owned == plain_);
  const Graph mapped = io::mmap_ssg(p);
  EXPECT_TRUE(mapped.is_compressed());
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_EQ(mapped.storage_mode(), "compressed+mmap");
  EXPECT_TRUE(mapped == plain_);
  // Trusted loads of an intact file are identical.
  EXPECT_TRUE(io::load_ssg(p, io::SsgValidation::kTrusted) == plain_);
  EXPECT_TRUE(io::mmap_ssg(p, io::SsgValidation::kTrusted) == plain_);
  // Mapped copies keep the mapping alive.
  Graph copy;
  {
    const Graph inner = io::mmap_ssg(p);
    copy = inner;
  }
  EXPECT_TRUE(copy == plain_);
}

TEST_F(SsgV2Test, LoadGraphFileDispatchesV2) {
  const std::string p = save_reference("d.ssg");
  EXPECT_TRUE(io::load_graph_file(p, /*prefer_mmap=*/true).is_mapped());
  EXPECT_TRUE(io::load_graph_file(p, true).is_compressed());
  EXPECT_FALSE(io::load_graph_file(p, /*prefer_mmap=*/false).is_mapped());
  EXPECT_TRUE(io::load_graph_file(p, false) == plain_);
}

TEST_F(SsgV2Test, EmptyAndEdgelessRoundTrip) {
  for (const Graph& g : {Graph(), Graph::from_edges(9, {})}) {
    const std::string p = path("e.ssg");
    io::save_ssg(p, Graph::compress(g));
    EXPECT_TRUE(io::load_ssg(p) == g);
    EXPECT_TRUE(io::mmap_ssg(p) == g);
  }
}

TEST_F(SsgV2Test, BadFlagThrowsEvenWhenChecksummed) {
  for (const std::uint64_t bad_flags : {std::uint64_t{0}, std::uint64_t{3},
                                        std::uint64_t{1} << 40}) {
    const std::string p = save_reference("f.ssg");
    auto bytes = read_all(p);
    std::memcpy(bytes.data() + 40, &bad_flags, 8);
    refresh_v2_checksum(bytes);
    write_all(p, bytes);
    expect_rejected(p, /*trusted_too=*/true);
  }
}

TEST_F(SsgV2Test, UnsupportedSuperblockThrows) {
  const std::string p = save_reference("s.ssg");
  auto bytes = read_all(p);
  const std::uint64_t other = 32;  // a codec-parameter change, not corruption
  std::memcpy(bytes.data() + 56, &other, 8);
  refresh_v2_checksum(bytes);
  write_all(p, bytes);
  expect_rejected(p, /*trusted_too=*/true);
}

TEST_F(SsgV2Test, UnsupportedVersionThrows) {
  const std::string p = save_reference("v.ssg");
  auto bytes = read_all(p);
  bytes[8] = 4;  // 1, 2 and 3 are implemented
  write_all(p, bytes);
  expect_rejected(p, /*trusted_too=*/true);
}

TEST_F(SsgV2Test, TruncationAtEverySectionThrows) {
  const std::string p = save_reference("t.ssg");
  const auto bytes = read_all(p);
  const std::size_t index_end =
      64 + cadj::index_entries(plain_.num_vertices()) * 8;
  // Mid-header, mid-index, just past the index (superblock boundary), deep
  // inside the payload, and one byte short.
  for (const std::size_t keep :
       {std::size_t{17}, std::size_t{80}, index_end, index_end + 40,
        bytes.size() - 1}) {
    ASSERT_LT(keep, bytes.size());
    write_all(p, std::vector<char>(bytes.begin(), bytes.begin() + keep));
    expect_rejected(p, /*trusted_too=*/true);
  }
}

TEST_F(SsgV2Test, OversizedFileThrows) {
  const std::string p = save_reference("o.ssg");
  auto bytes = read_all(p);
  bytes.insert(bytes.end(), {char(1), char(2), char(3)});
  write_all(p, bytes);
  expect_rejected(p, /*trusted_too=*/true);
}

TEST_F(SsgV2Test, ChecksumMismatchThrows) {
  {
    const std::string p = save_reference("c.ssg");
    auto bytes = read_all(p);
    bytes[bytes.size() - 2] ^= 0x10;  // deep payload flip, checksum stale
    write_all(p, bytes);
    EXPECT_THROW(io::load_ssg(p), std::runtime_error);
    EXPECT_THROW(io::mmap_ssg(p), std::runtime_error);
  }
  {
    const std::string p = save_reference("c2.ssg");
    auto bytes = read_all(p);
    bytes[32] ^= 0x01;  // the checksum field itself
    write_all(p, bytes);
    EXPECT_THROW(io::load_ssg(p), std::runtime_error);
    EXPECT_THROW(io::mmap_ssg(p), std::runtime_error);
  }
}

TEST_F(SsgV2Test, HostilePayloadBytesHeaderThrows) {
  const std::string p = save_reference("h.ssg");
  auto bytes = read_all(p);
  std::uint64_t payload_bytes;
  std::memcpy(&payload_bytes, bytes.data() + 48, 8);
  payload_bytes += (std::uint64_t{1} << 62);
  std::memcpy(bytes.data() + 48, &payload_bytes, 8);
  write_all(p, bytes);
  expect_rejected(p, /*trusted_too=*/true);
}

TEST_F(SsgV2Test, IndexOffsetMismatchThrows) {
  // Interior index entry nudged off its true row start: the full decode
  // cross-checks every superblock boundary.
  const std::string p = save_reference("i.ssg", 600, 0.03, 7);
  auto bytes = read_all(p);
  std::uint64_t entry;
  std::memcpy(&entry, bytes.data() + 64 + 8, 8);  // superblock 1
  entry += 1;
  std::memcpy(bytes.data() + 64 + 8, &entry, 8);
  refresh_v2_checksum(bytes);
  write_all(p, bytes);
  EXPECT_THROW(io::load_ssg(p), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(p), std::runtime_error);

  // An entry past the payload end violates the always-on index check.
  auto bytes2 = read_all(save_reference("i2.ssg"));
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(bytes2.data() + 64 + 8, &huge, 8);
  refresh_v2_checksum(bytes2);
  const std::string p2 = path("i2.ssg");
  write_all(p2, bytes2);
  expect_rejected(p2, /*trusted_too=*/true);

  // Last entry != payload size: always-on too.
  auto bytes3 = read_all(save_reference("i3.ssg"));
  const std::size_t last =
      64 + (cadj::index_entries(plain_.num_vertices()) - 1) * 8;
  std::uint64_t sentinel;
  std::memcpy(&sentinel, bytes3.data() + last, 8);
  sentinel -= 1;
  std::memcpy(bytes3.data() + last, &sentinel, 8);
  refresh_v2_checksum(bytes3);
  const std::string p3 = path("i3.ssg");
  write_all(p3, bytes3);
  expect_rejected(p3, /*trusted_too=*/true);
}

TEST_F(SsgV2Test, VarintOverrunThrows) {
  // Row 0 of a 2-vertex graph: degree varint with 6 continuation bytes.
  const std::vector<std::uint8_t> overlong = {0x81, 0x80, 0x80, 0x80, 0x80, 0x01};
  const std::string p =
      craft_v2("vo.ssg", 2, 0, {0, static_cast<std::uint64_t>(overlong.size())},
               overlong);
  EXPECT_THROW(io::load_ssg(p), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(p), std::runtime_error);

  // A varint cut off by the end of the payload ("truncated superblock"):
  // degree says 2, one continuation byte dangles.
  const std::vector<std::uint8_t> dangling = {0x02, 0x01, 0x80};
  const std::string p2 =
      craft_v2("vd.ssg", 4, 2, {0, static_cast<std::uint64_t>(dangling.size())},
               dangling);
  EXPECT_THROW(io::load_ssg(p2), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(p2), std::runtime_error);

  // Value outside the vertex range (5 bytes, > 2^31).
  const std::vector<std::uint8_t> huge_value = {0x01, 0xff, 0xff, 0xff, 0xff, 0x7f};
  const std::string p3 = craft_v2(
      "vh.ssg", 2, 1, {0, static_cast<std::uint64_t>(huge_value.size())},
      huge_value);
  EXPECT_THROW(io::load_ssg(p3), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(p3), std::runtime_error);
}

TEST_F(SsgV2Test, StructurallyInvalidButChecksummedPayloadThrows) {
  // Self-loop: row 0 = {0}.
  const std::string self_loop = craft_v2("sl.ssg", 2, 1, {0, 2}, {0x01, 0x00});
  EXPECT_THROW(io::load_ssg(self_loop), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(self_loop), std::runtime_error);

  // Duplicate neighbor: row 0 = {1, 1} (gap 0).
  const std::string dup =
      craft_v2("dup.ssg", 3, 2, {0, 3}, {0x02, 0x01, 0x00});
  EXPECT_THROW(io::load_ssg(dup), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(dup), std::runtime_error);

  // Neighbor id >= n: row 0 = {5} with n = 3.
  const std::string range =
      craft_v2("rg.ssg", 3, 1, {0, 2}, {0x01, 0x05});
  EXPECT_THROW(io::load_ssg(range), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(range), std::runtime_error);

  // Asymmetric rows: 0 -> {1} but 1 -> {} (valid per-row, wrong globally).
  const std::string asym =
      craft_v2("as.ssg", 2, 1, {0, 3}, {0x01, 0x01, 0x00});
  EXPECT_THROW(io::load_ssg(asym), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(asym), std::runtime_error);

  // Degree exceeding the remaining payload ("row shorter than degree").
  const std::string hungry = craft_v2("hg.ssg", 100, 0, {0, 1, 1}, {0x63});
  EXPECT_THROW(io::load_ssg(hungry), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(hungry), std::runtime_error);

  // Endpoint total disagreeing with the header's adj_len.
  const std::string miscount =
      craft_v2("mc.ssg", 2, 4, {0, 4}, {0x01, 0x01, 0x01, 0x00});
  EXPECT_THROW(io::load_ssg(miscount), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(miscount), std::runtime_error);

  // Non-canonical (zero-padded) varint: id 1 as 0x81 0x00. Structurally
  // "the same graph", but the codec is canonical — payload equality stands
  // in for structural equality — so a padding writer must be rejected.
  const std::string padded = craft_v2("nc.ssg", 2, 2, {0, 5},
                                      {0x01, 0x81, 0x00, 0x01, 0x00});
  EXPECT_THROW(io::load_ssg(padded), std::runtime_error);
  EXPECT_THROW(io::mmap_ssg(padded), std::runtime_error);
}

TEST_F(SsgV2Test, TrustedDecodeOfGarbageThrowsInsteadOfReadingOutOfBounds) {
  // kTrusted skips the up-front audit, so these garbage payloads LOAD —
  // but every row decode is still bounds- and range-checked, so touching
  // the rows throws std::runtime_error instead of scanning out of bounds
  // (ASan/UBSan verify the "no OOB" half of that claim in CI).
  const std::vector<std::pair<const char*, std::vector<std::uint8_t>>> cases = {
      {"dangling varint", {0x02, 0x01, 0x80}},
      {"hostile degree", {0x63}},
      {"value overflow", {0x01, 0xff, 0xff, 0xff, 0xff, 0x7f}},
  };
  int idx = 0;
  for (const auto& [what, payload] : cases) {
    const std::string p = craft_v2("tg" + std::to_string(idx++) + ".ssg", 100,
                                   0, {0, 0, static_cast<std::uint64_t>(payload.size())},
                                   payload);
    const Graph g = io::mmap_ssg(p, io::SsgValidation::kTrusted);
    NeighborScratch scratch;
    bool threw = false;
    try {
      for (Vertex u = 0; u < g.num_vertices(); ++u) (void)g.neighbors(u, scratch);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << what;
  }
}

}  // namespace
}  // namespace ssmis
