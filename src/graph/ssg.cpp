#include "graph/ssg.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "graph/compressed.hpp"
#include "graph/io.hpp"
#include "support/cli.hpp"
#include "support/hash.hpp"
#include "support/narrow.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SSMIS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace ssmis {
namespace io {

namespace {

// One header layout for both versions: v1 zeroes the last three fields
// (they were "reserved" before v2 claimed them), v2 uses them as
// flags / payload_bytes / superblock. v1 files are byte-identical to the
// pre-v2 writer's output.
struct SsgHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian_tag;
  std::int64_t n;
  std::int64_t adj_len;
  std::uint64_t checksum;
  std::uint64_t flags;
  std::uint64_t payload_bytes;
  std::uint64_t superblock;
};
static_assert(sizeof(SsgHeader) == kSsgHeaderBytes);

// v1 checksum covers the shape fields and both payload arrays, so a
// corrupted header count fails as loudly as a flipped adjacency byte.
std::uint64_t payload_checksum(std::int64_t n, std::int64_t adj_len,
                               const std::int64_t* offsets, const Vertex* adj) {
  std::uint64_t h = kFnv1aBasis;
  h = fnv1a(h, &n, sizeof(n));
  h = fnv1a(h, &adj_len, sizeof(adj_len));
  h = fnv1a(h, offsets, static_cast<std::size_t>(n + 1) * sizeof(std::int64_t));
  h = fnv1a(h, adj, static_cast<std::size_t>(adj_len) * sizeof(Vertex));
  return h;
}

// v2 checksum: shape + codec parameters + index + payload, same loudness
// contract as v1.
std::uint64_t compressed_checksum(const SsgHeader& h, const std::uint64_t* index,
                                  std::size_t index_entries,
                                  const std::uint8_t* payload) {
  std::uint64_t sum = kFnv1aBasis;
  sum = fnv1a(sum, &h.n, sizeof(h.n));
  sum = fnv1a(sum, &h.adj_len, sizeof(h.adj_len));
  sum = fnv1a(sum, &h.flags, sizeof(h.flags));
  sum = fnv1a(sum, &h.payload_bytes, sizeof(h.payload_bytes));
  sum = fnv1a(sum, &h.superblock, sizeof(h.superblock));
  sum = fnv1a(sum, index, index_entries * sizeof(std::uint64_t));
  sum = fnv1a(sum, payload, static_cast<std::size_t>(h.payload_bytes));
  return sum;
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("ssg: " + path + ": " + what);
}

// Version-independent header gate: magic and endianness first (them failing
// means "not our file at all"), then a version we implement.
void validate_magic_and_version(const std::string& path, const SsgHeader& h) {
  if (std::memcmp(h.magic, kSsgMagic, sizeof(kSsgMagic)) != 0)
    fail(path, "bad magic (not an .ssg file)");
  if (h.endian_tag != kSsgEndianTag)
    fail(path, "endianness mismatch (file written on an incompatible host)");
  if (h.version != kSsgVersion && h.version != kSsgVersionCompressed)
    fail(path, "unsupported format version " + std::to_string(h.version));
}

// v1 shape validation. `file_bytes` is the actual on-disk size.
void validate(const std::string& path, const SsgHeader& h, std::int64_t file_bytes) {
  if (h.n < 0 || h.adj_len < 0 || h.n > 0x7fffffffLL) fail(path, "corrupt header counts");
  // Derive the adjacency byte budget from the actual file size instead of
  // multiplying header counts (4 * adj_len on a hostile header overflows
  // int64 and would wrap past this check into out-of-bounds reads).
  const std::int64_t payload_bytes =
      file_bytes - static_cast<std::int64_t>(kSsgHeaderBytes) - 8 * (h.n + 1);
  if (payload_bytes < 0 || payload_bytes % 4 != 0 || payload_bytes / 4 != h.adj_len)
    fail(path, "truncated or oversized file (" + std::to_string(file_bytes) +
                   " bytes does not match n=" + std::to_string(h.n) +
                   ", adj_len=" + std::to_string(h.adj_len) + ")");
}

// v2 shape validation: codec parameters plus section sizes, again derived
// from the actual file size so hostile headers cannot wrap the math.
// Returns the index entry count.
std::size_t validate_compressed_header(const std::string& path, const SsgHeader& h,
                                       std::int64_t file_bytes) {
  if (h.n < 0 || h.adj_len < 0 || h.n > 0x7fffffffLL) fail(path, "corrupt header counts");
  if (h.flags != kSsgFlagCompressed)
    fail(path, "unsupported flags " + std::to_string(h.flags) +
                   " (v2 requires the compressed-payload flag alone)");
  if (h.superblock != static_cast<std::uint64_t>(cadj::kSuperblock))
    fail(path, "unsupported superblock " + std::to_string(h.superblock) +
                   " (this reader implements " + std::to_string(cadj::kSuperblock) + ")");
  const std::size_t entries = cadj::index_entries(h.n);
  const std::int64_t payload_bytes =
      file_bytes - static_cast<std::int64_t>(kSsgHeaderBytes) -
      static_cast<std::int64_t>(entries) * 8;
  if (payload_bytes < 0 ||
      static_cast<std::uint64_t>(payload_bytes) != h.payload_bytes)
    fail(path, "truncated or oversized file (" + std::to_string(file_bytes) +
                   " bytes does not match n=" + std::to_string(h.n) +
                   ", payload_bytes=" + std::to_string(h.payload_bytes) + ")");
  return entries;
}

// Offsets are what row iteration indexes with — corruption there means
// out-of-bounds reads on the first neighbors() call. This check is O(n)
// and runs on EVERY v1 load, trusted or not.
void validate_offsets(const std::string& path, std::int64_t n, std::int64_t adj_len,
                      const std::int64_t* offsets) {
  if (offsets[0] != 0) fail(path, "corrupt offsets (offsets[0] != 0)");
  for (std::int64_t u = 0; u < n; ++u)
    if (offsets[u] > offsets[u + 1]) fail(path, "corrupt offsets (not monotone)");
  if (offsets[n] != adj_len) fail(path, "corrupt offsets (offsets[n] != adj_len)");
  if (adj_len % 2 != 0)
    fail(path, "corrupt adjacency (odd endpoint count: a dangling half-edge)");
}

// Exact symmetry check of every entry from index i of row u on, in
// row-major order. Binary search is exact because pass 1 has validated
// every row.
void audit_reverse_entries(const std::string& path, std::int64_t n,
                           const std::int64_t* offsets, const Vertex* adj,
                           std::int64_t u, std::int64_t i) {
  for (; u < n; ++u) {
    for (; i < offsets[u + 1]; ++i) {
      const auto v = static_cast<std::size_t>(adj[i]);
      if (!std::binary_search(adj + offsets[v], adj + offsets[v + 1],
                              narrow_cast<Vertex>(u)))
        fail(path, "corrupt adjacency (edge " + std::to_string(u) + "->" +
                       std::to_string(v) + " has no reverse entry)");
    }
  }
}

// Full structural audit of the v1 adjacency payload: out-of-range values
// mean out-of-bounds per-vertex state access in every process, unsorted or
// duplicated rows break the binary-search/dedup invariant Graph's contract
// promises (has_edge would silently miss present edges), and asymmetric
// rows desync the engine's incremental neighbor counters. All of it can
// arrive with a perfectly valid checksum from an external writer, so the
// default kFull load runs this audit; kTrusted skips it. Two sequential
// O(n + m) passes, each throwing (via fail) at its FIRST violation in
// row-major order; the only allocation is 4 B/vertex of cursors, freed on
// return.
void validate_adjacency(const std::string& path, std::int64_t n,
                        const std::int64_t* offsets, const Vertex* adj) {
  // Pass 1: every row is in range, loop-free and strictly increasing.
  for (std::int64_t u = 0; u < n; ++u) {
    for (std::int64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const Vertex v = adj[i];
      if (v < 0 || v >= n)
        fail(path, "corrupt adjacency (vertex id out of range at index " +
                       std::to_string(i) + ")");
      if (v == u)
        fail(path, "corrupt adjacency (self-loop in row " + std::to_string(u) + ")");
      if (i > offsets[u] && adj[i - 1] >= v)
        fail(path, "corrupt adjacency (row " + std::to_string(u) +
                       " not sorted/deduplicated)");
    }
  }
  // Pass 2: symmetry. Row u announces itself to each upper neighbour v in
  // ascending u, which in a symmetric file is exactly the order of row v's
  // lower entries; cursor[v] counts row v's lower entries matched so far.
  // So an entry costs one compare, and when the scan reaches row u, every
  // lower entry of row u must already be matched: one that is not was never
  // announced, so u is not in its row and its compare misses too. A miss
  // proves the file asymmetric but not that this entry is at fault (row v
  // may hold an unannounced lower entry before u), so the scan continues
  // from the miss with exact lookups. Everything before the miss is
  // matched, so that continuation reports the first asymmetric entry in
  // row-major order.
  std::vector<Vertex> cursor(static_cast<std::size_t>(n), 0);
  for (std::int64_t u = 0; u < n; ++u) {
    for (std::int64_t i = offsets[u] + cursor[static_cast<std::size_t>(u)];
         i < offsets[u + 1]; ++i) {
      const auto v = static_cast<std::size_t>(adj[i]);
      const std::int64_t j = offsets[v] + cursor[v];
      if (j == offsets[v + 1] || adj[j] != u) {
        audit_reverse_entries(path, n, offsets, adj, u, i);
        return;
      }
      ++cursor[v];
    }
  }
}

// The codec validators throw without the file path; re-throw with it so a
// corrupted v2 file names itself like every other .ssg failure.
template <typename Fn>
void validate_codec(const std::string& path, Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    fail(path, e.what());
  }
}

// Scratch-file + atomic-rename writer shared by both formats: the replace
// is atomic (no half-written .ssg visible at `path`), saving over the very
// file a Graph is mmap'd from cannot truncate the live mapping (the old
// inode survives until it is unmapped), and a failed write removes the
// scratch file instead of stranding it.
void write_atomically(const std::string& path,
                      const std::function<void(std::ofstream&)>& body) {
#ifdef SSMIS_HAVE_MMAP
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
#else
  // No pid available: a random suffix keeps concurrent saves to the same
  // target from clobbering one shared scratch file.
  const std::string tmp =
      // ssmis-lint: allow(R2) scratch-file name salt on non-unix hosts; never reaches a trajectory
      path + ".tmp." + std::to_string(std::random_device{}());
#endif
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail(tmp, "cannot open for writing");
    body(out);
    // close() flushes; checking only before the flush would let an ENOSPC
    // on the final buffer slip a truncated file past the rename below.
    out.close();
    if (out.fail()) {
      std::error_code cleanup_ec;
      std::filesystem::remove(tmp, cleanup_ec);  // don't strand a partial file
      fail(tmp, "write failed");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    fail(path, "rename from scratch file failed");
  }
}

#ifdef SSMIS_HAVE_MMAP
struct MmapRegion {
  void* base = nullptr;
  std::size_t bytes = 0;
  ~MmapRegion() {
    if (base != nullptr) ::munmap(base, bytes);
  }
};
#endif

}  // namespace

std::int64_t ssg_file_bytes(const Graph& g) {
  if (g.is_compressed()) {
    return static_cast<std::int64_t>(kSsgHeaderBytes) +
           static_cast<std::int64_t>(g.compressed_index().size()) * 8 +
           static_cast<std::int64_t>(g.compressed_payload().size());
  }
  // ssmis-lint: allow(R1) plain-storage branch: the compressed case returned above
  const auto adjacency_words = static_cast<std::int64_t>(g.adjacency().size());
  return static_cast<std::int64_t>(kSsgHeaderBytes) +
         8 * (static_cast<std::int64_t>(g.num_vertices()) + 1) +
         4 * adjacency_words;
}

void save_ssg(const std::string& path, const Graph& g) {
  SsgHeader h{};
  std::memcpy(h.magic, kSsgMagic, sizeof(kSsgMagic));
  h.endian_tag = kSsgEndianTag;
  h.n = g.num_vertices();
  if (g.is_compressed()) {
    const auto index = g.compressed_index();
    const auto payload = g.compressed_payload();
    h.version = kSsgVersionCompressed;
    h.adj_len = 2 * g.num_edges();
    h.flags = kSsgFlagCompressed;
    h.payload_bytes = payload.size();
    h.superblock = static_cast<std::uint64_t>(cadj::kSuperblock);
    h.checksum = compressed_checksum(h, index.data(), index.size(), payload.data());
    write_atomically(path, [&](std::ofstream& out) {
      out.write(reinterpret_cast<const char*>(&h), sizeof(h));
      out.write(reinterpret_cast<const char*>(index.data()),
                static_cast<std::streamsize>(index.size() * sizeof(std::uint64_t)));
      out.write(reinterpret_cast<const char*>(payload.data()),
                static_cast<std::streamsize>(payload.size()));
    });
    return;
  }
  h.version = kSsgVersion;
  // ssmis-lint: allow(R1) plain-storage branch: the compressed case returned above
  const auto offsets = g.offsets();
  // ssmis-lint: allow(R1) plain-storage branch: the compressed case returned above
  const auto adjacency = g.adjacency();
  h.adj_len = static_cast<std::int64_t>(adjacency.size());
  h.checksum = payload_checksum(h.n, h.adj_len, offsets.data(), adjacency.data());
  write_atomically(path, [&](std::ofstream& out) {
    out.write(reinterpret_cast<const char*>(&h), sizeof(h));
    out.write(reinterpret_cast<const char*>(offsets.data()),
              static_cast<std::streamsize>(offsets.size() * sizeof(std::int64_t)));
    out.write(reinterpret_cast<const char*>(adjacency.data()),
              static_cast<std::streamsize>(adjacency.size() * sizeof(Vertex)));
  });
}

Graph load_ssg(const std::string& path, SsgValidation validation) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) fail(path, "cannot open");
  const std::int64_t file_bytes = static_cast<std::int64_t>(in.tellg());
  in.seekg(0);
  SsgHeader h{};
  if (file_bytes < static_cast<std::int64_t>(sizeof(h))) fail(path, "truncated header");
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  validate_magic_and_version(path, h);

  if (h.version == kSsgVersionCompressed) {
    const std::size_t entries = validate_compressed_header(path, h, file_bytes);
    std::vector<std::uint64_t> index(entries);
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(h.payload_bytes));
    in.read(reinterpret_cast<char*>(index.data()),
            static_cast<std::streamsize>(index.size() * sizeof(std::uint64_t)));
    in.read(reinterpret_cast<char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
    if (!in) fail(path, "read failed");
    validate_codec(path, [&] {
      validate_compressed_index(h.n, index.data(), payload.size());
    });
    if (validation == SsgValidation::kFull) {
      if (compressed_checksum(h, index.data(), index.size(), payload.data()) !=
          h.checksum)
        fail(path, "checksum mismatch (corrupted file)");
      validate_codec(path, [&] {
        validate_compressed_payload(h.n, h.adj_len, index.data(), payload.data(),
                                    payload.size());
      });
    }
    return Graph::from_compressed(narrow_cast<Vertex>(h.n), h.adj_len,
                                  std::move(index), std::move(payload));
  }

  validate(path, h, file_bytes);
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(h.n) + 1);
  std::vector<Vertex> adj(static_cast<std::size_t>(h.adj_len));
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(std::int64_t)));
  in.read(reinterpret_cast<char*>(adj.data()),
          static_cast<std::streamsize>(adj.size() * sizeof(Vertex)));
  if (!in) fail(path, "read failed");
  validate_offsets(path, h.n, h.adj_len, offsets.data());
  if (validation == SsgValidation::kFull) {
    if (payload_checksum(h.n, h.adj_len, offsets.data(), adj.data()) != h.checksum)
      fail(path, "checksum mismatch (corrupted file)");
    validate_adjacency(path, h.n, offsets.data(), adj.data());
  }
  return Graph::from_owned_csr(narrow_cast<Vertex>(h.n), std::move(offsets),
                               std::move(adj));
}

Graph mmap_ssg(const std::string& path, SsgValidation validation) {
#ifdef SSMIS_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path, "fstat failed");
  }
  const std::int64_t file_bytes = static_cast<std::int64_t>(st.st_size);
  if (file_bytes < static_cast<std::int64_t>(sizeof(SsgHeader))) {
    ::close(fd);
    fail(path, "truncated header");
  }
  void* base = ::mmap(nullptr, static_cast<std::size_t>(file_bytes), PROT_READ,
                      MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) fail(path, "mmap failed");
  auto region = std::make_shared<MmapRegion>();
  region->base = base;
  region->bytes = static_cast<std::size_t>(file_bytes);

  SsgHeader h{};
  std::memcpy(&h, base, sizeof(h));
  validate_magic_and_version(path, h);
  const auto* bytes = static_cast<const unsigned char*>(base);

  if (h.version == kSsgVersionCompressed) {
    const std::size_t entries = validate_compressed_header(path, h, file_bytes);
    const auto* index =
        reinterpret_cast<const std::uint64_t*>(bytes + kSsgHeaderBytes);
    const auto* payload = bytes + kSsgHeaderBytes + entries * 8;
    validate_codec(path, [&] {
      validate_compressed_index(h.n, index,
                                static_cast<std::size_t>(h.payload_bytes));
    });
    if (validation == SsgValidation::kFull) {
      if (compressed_checksum(h, index, entries, payload) != h.checksum)
        fail(path, "checksum mismatch (corrupted file)");
      validate_codec(path, [&] {
        validate_compressed_payload(h.n, h.adj_len, index, payload,
                                    static_cast<std::size_t>(h.payload_bytes));
      });
    }
    return Graph::from_external_compressed(
        narrow_cast<Vertex>(h.n), h.adj_len, index, payload,
        static_cast<std::size_t>(h.payload_bytes), std::move(region));
  }

  validate(path, h, file_bytes);
  const auto* offsets =
      reinterpret_cast<const std::int64_t*>(bytes + kSsgHeaderBytes);
  const auto* adj = reinterpret_cast<const Vertex*>(
      bytes + kSsgHeaderBytes + 8 * (static_cast<std::size_t>(h.n) + 1));
  validate_offsets(path, h.n, h.adj_len, offsets);
  if (validation == SsgValidation::kFull) {
    if (payload_checksum(h.n, h.adj_len, offsets, adj) != h.checksum)
      fail(path, "checksum mismatch (corrupted file)");
    validate_adjacency(path, h.n, offsets, adj);
  }
  return Graph::from_external_csr(narrow_cast<Vertex>(h.n), offsets, adj,
                                  static_cast<std::size_t>(h.adj_len),
                                  std::move(region));
#else
  return load_ssg(path, validation);
#endif
}

Graph load_graph_file(const std::string& path, bool prefer_mmap,
                      SsgValidation validation) {
  const bool is_ssg =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".ssg") == 0;
  if (is_ssg)
    return prefer_mmap ? mmap_ssg(path, validation) : load_ssg(path, validation);
  std::ifstream in(path);
  if (!in) fail(path, "cannot open");
  return read_edge_list(in);
}

Graph load_graph_file_from_args(const CliArgs& args) {
  return load_graph_file(args.get_string("graph-file", ""),
                         args.get_bool("graph-mmap", true),
                         args.get_bool("graph-trusted", false)
                             ? SsgValidation::kTrusted
                             : SsgValidation::kFull);
}

}  // namespace io
}  // namespace ssmis
