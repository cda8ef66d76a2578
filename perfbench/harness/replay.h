// Single-thread layer replays over one workload's real block payloads.
//
// Each replay feeds the exact bytes the workload's container holds
// through one layer in isolation, one call per block and stream, with a
// span around every call:
//
//   codec      fast::huffman_decode, fast::snappy_decode, the inverse
//              transform, and decompress_block_fast end to end
//   storage    the ContainerSource lease protocol over a streamed copy
//              of the container (pread into pooled windows)
//   spmv       accumulate_block(_batch) over pre-decoded blocks, one
//              serial RecodedSpmv apply, and the plain-CSR baselines
//
// From these, spmv.serial_ms = Σ layer replays + residual.
#pragma once

#include <string>

#include "codec/pipeline.h"
#include "harness/bench.h"
#include "sparse/formats.h"

namespace perfbench {

struct ReplayConfig {
  int k = 1;        // right-hand sides of the workload's apply
  int passes = 3;   // timed passes per layer; medians are reported
  std::string container_path;  // scratch file for the storage replay
};

// Records codec.{huffman,snappy,transform}_gbps, codec.block_decode_us_p50,
// codec.write_s (this matrix's container), source.*, spmv.kernel_gbps,
// spmv.serial_ms, spmv.csr_ms, spmv.csr_par_ms, layers.decode_frac and
// layers.residual_frac. `csr` is the matrix cm was compressed from.
void replay_layers(const recode::codec::CompressedMatrix& cm,
                   const recode::sparse::Csr& csr, const ReplayConfig& cfg,
                   SpanLog& log, Metrics& m);

}  // namespace perfbench
