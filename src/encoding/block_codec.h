// Block-wise FOR/delta codec for the compressed column backend.
//
// The pre/post plane columns are ideal light-weight-compression targets:
// fragment pre lists are strictly monotone, postorder ranks move in
// short runs, level/kind fit in a handful of bits, and parent links
// point a bounded distance backwards. Each block of up to kBlockValues
// uint32 values is encoded independently with whichever of two
// encodings is smaller:
//
//   * FOR   -- circular frame of reference: the base sits just past the
//              largest circular gap of the block's value set (for a
//              plain block that is min(block); for a block mixing tiny
//              ranks with 0xFFFFFFFF sentinels like kNoTag/kNilNode it
//              wraps around them), every value stored as
//              (value - base) mod 2^32 in `width` bits;
//   * DELTA -- base = first value, the remaining values stored as
//              zig-zag deltas to their predecessor in `width` bits
//              (monotone runs with small steps pack near-optimally;
//              non-monotone columns like parent still work because the
//              deltas are signed).
//
// Blocks are self-describing (an 8-byte header carries mode, bit width,
// value count and base) and never span storage pages, so a reader can
// decode any block after one page read. The codec is deliberately
// checksum-free: whole-image integrity is the job of the column digests
// (storage/column.h), which cover the encoded bytes.

#ifndef STAIRJOIN_ENCODING_BLOCK_CODEC_H_
#define STAIRJOIN_ENCODING_BLOCK_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/result.h"
#include "util/status.h"

namespace sj::encoding {

/// Maximum values per encoded block. 1024 ranks keep the worst-case
/// encoded block (incompressible 32-bit data) within one 8 KiB page
/// including the header, so a block never has to span pages.
inline constexpr size_t kBlockValues = 1024;

/// Encoded block header size in bytes:
///   [0] mode (0 = FOR, 1 = DELTA)
///   [1] bit width (0..32; 0 encodes a constant/strict-run block)
///   [2..3] value count, little-endian uint16
///   [4..7] base value, little-endian uint32
inline constexpr size_t kBlockHeaderBytes = 8;

/// Upper bound on the encoded size of a block of `count` values (the
/// scratch-buffer size an encoder must provide).
constexpr size_t MaxEncodedBlockBytes(size_t count) {
  return kBlockHeaderBytes + count * sizeof(uint32_t);
}

/// Encodes `values` (at most kBlockValues of them) into `out`, which
/// must hold MaxEncodedBlockBytes(values.size()). Picks the smaller of
/// the FOR and DELTA encodings. Returns the encoded size in bytes.
size_t EncodeBlock(std::span<const uint32_t> values, uint8_t* out);

/// Parses the header at `data` and returns the total encoded size of
/// the block (header + payload). Fails with InvalidArgument when the
/// header is malformed or the block would overrun `available` bytes.
Result<size_t> EncodedBlockSize(const uint8_t* data, size_t available);

/// Decodes the block at `data` into `out`, which must hold
/// `expected_count` values. Fails with InvalidArgument when the header
/// is malformed, the count disagrees with `expected_count`, or the
/// payload overruns `available` bytes.
Status DecodeBlock(const uint8_t* data, size_t available,
                   size_t expected_count, uint32_t* out);

}  // namespace sj::encoding

#endif  // STAIRJOIN_ENCODING_BLOCK_CODEC_H_
