// `.ssg` — the versioned binary on-disk graph format.
//
// Generating a 10^7-vertex G(n,p) takes longer than simulating on it; the
// `.ssg` file lets a graph be generated once and reused across every
// experiment binary (the shared `--graph-file` flag). Two payload layouts
// exist, selected by the header's version field; all fields little-endian,
// 8-byte-aligned sections.
//
// Version 1 — plain CSR (written for plain-storage Graphs):
//
//   offset  size            field
//   ------  --------------  ---------------------------------------------
//        0  8               magic "SSGRAPH1"
//        8  4 (u32)         format version (1)
//       12  4 (u32)         endianness tag 0x01020304 as written
//       16  8 (i64)         n  (vertex count)
//       24  8 (i64)         adj_len (= 2m directed endpoints)
//       32  8 (u64)         FNV-1a checksum of the payload (see ssg.cpp)
//       40  24              reserved, zero
//       64  8*(n+1)         offsets[] (i64)
//   64+8(n+1)  4*adj_len    adj[] (i32)
//
// Version 2 — compressed adjacency (written for compressed-storage Graphs;
// codec in src/graph/varint.hpp):
//
//   offset  size            field
//   ------  --------------  ---------------------------------------------
//        0  8               magic "SSGRAPH1"
//        8  4 (u32)         format version (2)
//       12  4 (u32)         endianness tag 0x01020304 as written
//       16  8 (i64)         n
//       24  8 (i64)         adj_len (= 2m, for num_edges without a decode)
//       32  8 (u64)         FNV-1a checksum of the payload (see ssg.cpp)
//       40  8 (u64)         flags: bit 0 = varint/delta-compressed payload
//                           (must be exactly 0x1 in v2)
//       48  8 (u64)         payload_bytes (size of the row payload section)
//       56  8 (u64)         superblock (rows per index sample; must equal
//                           cadj::kSuperblock — a codec-parameter change
//                           bumps the version or rejects here)
//       64  8*E             index[] (u64), E = ceil(n/superblock) + 1
//    64+8E  payload_bytes   row payload (varint/delta rows, byte-packed)
//
// Versioning/endianness contract: readers reject any magic or endianness-
// tag mismatch and any version they do not implement with
// std::runtime_error rather than guessing — v1 files keep loading
// byte-identically under a v2-capable reader, and a big-endian host reading
// a little-endian file fails loudly on the tag. Truncated files, checksum
// mismatches, and codec structure violations also throw; no load path ever
// reads out of the file's bounds, hostile headers included.
//
// `load_ssg` copies into heap vectors; `mmap_ssg` maps the file read-only
// and wraps the in-file arrays directly (zero allocation beyond the page
// tables — the OS can evict and refault pages under memory pressure). The
// v2 + mmap combination is the 10^8-vertex regime: adjacency RSS is capped
// by the compressed payload and reclaimable under pressure.
#pragma once

#include <cstddef>
#include <string>

#include "graph/graph.hpp"

namespace ssmis {

class CliArgs;

namespace io {

inline constexpr char kSsgMagic[8] = {'S', 'S', 'G', 'R', 'A', 'P', 'H', '1'};
inline constexpr std::uint32_t kSsgVersion = 1;            // plain CSR payload
inline constexpr std::uint32_t kSsgVersionCompressed = 2;  // varint/delta payload
inline constexpr std::uint32_t kSsgEndianTag = 0x01020304u;
inline constexpr std::size_t kSsgHeaderBytes = 64;
inline constexpr std::uint64_t kSsgFlagCompressed = 1;  // v2 flags, bit 0

// How much of the payload a load re-checks. Header fields and offsets
// (monotone, matching adj_len — what row iteration indexes with) are
// validated in EVERY mode; the modes grade the O(m) work:
//   kFull    checksum pass + adjacency structure (range, sorted/dedup rows,
//            no self-loops, undirected symmetry). The default: a corrupted
//            file throws, never loads wrong. On v1 the structural audit is
//            O(n + m) on one thread with 4 B/vertex of transient cursors,
//            and its symmetry check is exact, so any file v1 accepts is a
//            valid graph. On v2 symmetry is an unkeyed multiset hash: it
//            misses random corruption with probability ~2^-64, but a writer
//            who picks asymmetric entries whose hash differences cancel
//            (a small k-sum search) and refreshes the checksum gets an
//            asymmetric graph through. Load files from untrusted writers as
//            v1.
//   kTrusted header + offsets only. For files this process (or pipeline)
//            wrote itself: reuse costs page faults, not a re-validation of
//            every edge — the point of generating once. A crafted file can
//            defeat this mode; that is what makes it "trusted".
enum class SsgValidation { kFull, kTrusted };

// Writes the format matching the graph's storage: v1 (plain CSR) for plain
// graphs, v2 (compressed payload) for compressed ones. Goes through a
// scratch file + atomic rename either way. Throws std::runtime_error on
// I/O failure.
void save_ssg(const std::string& path, const Graph& g);

// Reads the whole file into owned heap storage (plain CSR for v1 files,
// compressed for v2 — the returned Graph keeps the on-disk representation).
// Throws std::runtime_error on malformed header, unsupported version,
// truncation, or (in kFull mode) checksum mismatch / structural corruption.
[[nodiscard]] Graph load_ssg(const std::string& path,
               SsgValidation validation = SsgValidation::kFull);

// Memory-maps the file read-only and returns a zero-copy Graph view; the
// mapping lives as long as any copy of the Graph. Falls back to load_ssg
// on platforms without mmap.
[[nodiscard]] Graph mmap_ssg(const std::string& path,
               SsgValidation validation = SsgValidation::kFull);

// Dispatches on extension: `.ssg` -> binary (mmap or owned read), anything
// else -> the whitespace edge-list reader. The one-stop entry point behind
// every binary's --graph-file flag (`--graph-trusted` maps to kTrusted).
[[nodiscard]] Graph load_graph_file(const std::string& path, bool prefer_mmap = true,
                      SsgValidation validation = SsgValidation::kFull);

// Reads the shared --graph-file / --graph-mmap / --graph-trusted flags and
// dispatches to load_graph_file — the single flag-to-semantics mapping used
// by every exp binary and examples/simulate.
[[nodiscard]] Graph load_graph_file_from_args(const CliArgs& args);

// Bytes `g` occupies on disk and (mapped) in memory: header + 8(n+1) + 4*2m
// for plain storage, header + index + payload for compressed storage.
[[nodiscard]] std::int64_t ssg_file_bytes(const Graph& g);

}  // namespace io
}  // namespace ssmis
