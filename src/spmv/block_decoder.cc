#include "spmv/block_decoder.h"

#include "common/error.h"

namespace recode::spmv {

const char* decode_engine_name(DecodeEngine engine) {
  switch (engine) {
    case DecodeEngine::kSoftware: return "software";
    case DecodeEngine::kUdpSimulated: return "udp-sim";
  }
  return "?";
}

void check_block_indices(std::span<const sparse::index_t> indices,
                         sparse::index_t cols) {
  for (const sparse::index_t c : indices) {
    RECODE_PARSE_CHECK(c >= 0 && c < cols,
                       "decoded column index out of range");
  }
}

BlockDecoder::BlockDecoder(const codec::CompressedMatrix& cm,
                           codec::ContainerSource& source, DecodeEngine engine)
    : cm_(&cm), source_(&source), engine_(engine) {
  check_engine(source, engine);
}

void BlockDecoder::check_engine(const codec::ContainerSource& source,
                                DecodeEngine engine) {
  if (engine == DecodeEngine::kUdpSimulated && source.out_of_core()) {
    fail("the UDP simulator needs resident blocks; out-of-core sources "
         "support the software engine only");
  }
}

void BlockDecoder::set_engine(DecodeEngine engine) {
  check_engine(*source_, engine);
  engine_ = engine;
}

BlockStreams BlockDecoder::decode(std::size_t b) {
  BlockStreams s;
  if (engine_ == DecodeEngine::kSoftware) {
    const codec::SourceBlockBytes bytes = source_->block(b);
    const codec::DecodedBlock decoded = codec::decompress_block_fast(
        *cm_, b, bytes.index_data, bytes.value_data, scratch_, out_);
    s.indices = decoded.indices;
    s.values = decoded.values;
    s.stream_bytes = bytes.index_data.size() + bytes.value_data.size() + 1;
  } else {
    if (!udp_) udp_ = std::make_unique<udpprog::UdpPipelineDecoder>(*cm_);
    udp_result_ = udp_->decode_block(b);
    s.indices = udp_result_.indices;
    s.values = udp_result_.values;
    s.stream_bytes = cm_->blocks[b].bytes() + 1;
    s.udp_cycles = udp_result_.lane_cycles();
  }
  check_block_indices(s.indices, cm_->cols);
  return s;
}

}  // namespace recode::spmv
