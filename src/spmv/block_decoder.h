// One decode call per block for every decoded-stream consumer.
//
// RecodedSpmv, StreamingExecutor, SpGEMM and SpMSpV all need the same
// thing from a compressed matrix: block b's column indices and values.
// They get it from one place. A BlockDecoder reads the block's compressed
// bytes through a codec::ContainerSource (resident matrices use
// codec::make_resident_source, so there is no separate in-RAM branch),
// dispatches on the decode engine once, and range-checks the decoded
// indices before any consumer gathers through them. The shape follows the
// single-dispatch codec idiom: callers name a block, the decoder picks
// the engine.
//
// A decoder is per-worker state: it owns the decode arenas the software
// engine writes into and the lazily built UDP lane simulator, so the
// spans decode() returns alias that worker's memory and stay valid only
// until its next decode() call. Consumers that keep decoded data longer
// (the band cache, SpGEMM's band-flat copy) copy it out.
//
// The lease protocol stays with the caller: decode(b) requires the
// source's lease covering b to be held (a no-op for resident sources).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "codec/arena.h"
#include "codec/container_source.h"
#include "codec/pipeline.h"
#include "udpprog/block_decoder.h"

namespace recode::spmv {

enum class DecodeEngine {
  kSoftware,      // software codecs (the functional reference)
  kUdpSimulated,  // every block through the UDP lane simulator
};

const char* decode_engine_name(DecodeEngine engine);

// Throws recode::Error if any decoded column index falls outside
// [0, cols). A corrupt-but-well-framed index stream must surface as a
// recoverable error, never as an out-of-bounds gather in a kernel.
void check_block_indices(std::span<const sparse::index_t> indices,
                         sparse::index_t cols);

// One decoded block. indices/values alias the decoder's memory.
struct BlockStreams {
  std::span<const sparse::index_t> indices;
  std::span<const double> values;
  // Compressed bytes the block streamed: both payloads plus the codec-id
  // dispatch byte (container v2), matching CompressedMatrix::stream_bytes.
  std::size_t stream_bytes = 0;
  std::uint64_t udp_cycles = 0;  // lane cycles, kUdpSimulated only
};

class BlockDecoder {
 public:
  // `cm` and `source` must outlive the decoder. Throws recode::Error for
  // an engine the source cannot serve (UDP on an out-of-core source).
  BlockDecoder(const codec::CompressedMatrix& cm,
               codec::ContainerSource& source,
               DecodeEngine engine = DecodeEngine::kSoftware);

  // Decodes block b and checks its indices against cm.cols.
  BlockStreams decode(std::size_t b);

  // Same check as the constructor; throws with the engine unchanged.
  void set_engine(DecodeEngine engine);

  // Software-engine arenas, exposed so an owner of several decoders can
  // grow them all to a common high-water mark.
  codec::DecodeArena& scratch_arena() { return scratch_; }
  codec::DecodeArena& out_arena() { return out_; }

 private:
  // The one place engine/source compatibility is decided: the UDP
  // simulator walks cm.blocks directly, so it needs a resident source.
  static void check_engine(const codec::ContainerSource& source,
                           DecodeEngine engine);

  const codec::CompressedMatrix* cm_;
  codec::ContainerSource* source_;
  DecodeEngine engine_;
  codec::DecodeArena scratch_;
  codec::DecodeArena out_;
  std::unique_ptr<udpprog::UdpPipelineDecoder> udp_;  // built on first use
  udpprog::BlockResult udp_result_;  // backs the spans of a UDP decode
};

}  // namespace recode::spmv
