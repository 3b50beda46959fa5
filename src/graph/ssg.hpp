// `.ssg` — the versioned binary on-disk graph format.
//
// Generating a 10^7-vertex G(n,p) takes longer than simulating on it; the
// `.ssg` file lets a graph be generated once and reused across every
// experiment binary (the shared `--graph-file` flag). The header's version
// field selects the checksum; all fields little-endian, 8-byte-aligned
// sections.
//
// Version 3 — CSR with an XXH64 checksum (what save_ssg writes):
//
//   offset  size            field
//   ------  --------------  ---------------------------------------------
//        0  8               magic "SSGRAPH1"
//        8  4 (u32)         format version (3)
//       12  4 (u32)         endianness tag 0x01020304 as written
//       16  8 (i64)         n  (vertex count)
//       24  8 (i64)         adj_len (= 2m directed endpoints)
//       32  8 (u64)         XXH64 checksum, chained: h = XXH64(bytes 16-31,
//                           seed 0), then XXH64(offsets[], seed h), then
//                           XXH64(adj[], seed h)
//       40  24              reserved, zero
//       64  8*(n+1)         offsets[] (i64)
//   64+8(n+1)  4*adj_len    adj[] (i32)
//
// Version 1 — read-only: v3's exact layout with version 1, whose checksum
// is byte-wise FNV-1a over the same bytes in the same order (n, adj_len,
// offsets[], adj[]). Readers still accept it, so cached graphs keep loading;
// nothing writes it.
//
// Version 2 — retired; rejected as unsupported. It held a varint/delta
// compressed adjacency that no reader implements any more.
//
// Versioning/endianness contract: readers reject any magic or endianness-
// tag mismatch and any version they do not implement with
// std::runtime_error rather than guessing. The writer emits v3; v1 files
// keep loading byte-identically under a v3-capable reader, and a big-endian
// host reading a little-endian file fails loudly on the tag. Truncated
// files, checksum mismatches, and structure violations also throw; no load
// path ever reads out of the file's bounds, hostile headers included.
//
// `load_ssg` copies into heap vectors; `mmap_ssg` maps the file read-only
// and wraps the in-file arrays directly (zero allocation beyond the page
// tables — the OS can evict and refault pages under memory pressure).
#pragma once

#include <cstddef>
#include <string>

#include "graph/graph.hpp"

namespace ssmis {

class CliArgs;

namespace io {

inline constexpr char kSsgMagic[8] = {'S', 'S', 'G', 'R', 'A', 'P', 'H', '1'};
inline constexpr std::uint32_t kSsgVersionLegacy = 1;  // CSR, FNV-1a (read-only)
inline constexpr std::uint32_t kSsgVersion = 3;        // CSR, XXH64
inline constexpr std::uint32_t kSsgEndianTag = 0x01020304u;
inline constexpr std::size_t kSsgHeaderBytes = 64;

// How much of the payload a load re-checks. Header fields and offsets
// (monotone, matching adj_len — what row iteration indexes with) are
// validated in EVERY mode; the modes grade the O(m) work:
//   kFull    checksum pass + adjacency structure (range, sorted/dedup rows,
//            no self-loops, undirected symmetry). The default: a corrupted
//            file throws, never loads wrong. The structural audit is
//            O(n + m) on one thread with 4 B/vertex of transient cursors,
//            and its symmetry check is exact, so any file the reader
//            accepts is a valid graph.
//   kTrusted header + offsets only. For files this process (or pipeline)
//            wrote itself: reuse costs page faults, not a re-validation of
//            every edge — the point of generating once. A crafted file can
//            defeat this mode; that is what makes it "trusted".
enum class SsgValidation { kFull, kTrusted };

// Writes a v3 file through a scratch file + atomic rename. Throws
// std::runtime_error on I/O failure.
void save_ssg(const std::string& path, const Graph& g);

// Reads the whole file (v1 or v3) into owned heap storage.
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

// Bytes `g` occupies on disk and (mapped) in memory: header + 8(n+1) + 4*2m.
[[nodiscard]] std::int64_t ssg_file_bytes(const Graph& g);

}  // namespace io
}  // namespace ssmis
