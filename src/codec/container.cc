#include "codec/container.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "codec/file_sink.h"
#include "codec/registry.h"
#include "common/error.h"
#include "common/varint.h"

namespace recode::codec {

namespace {

constexpr char kMagic[4] = {'R', 'C', 'M', '1'};

void put_bytes(std::ostream& out, const void* data, std::size_t size) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

template <typename T>
void put_pod(std::ostream& out, T v) {
  put_bytes(out, &v, sizeof(v));
}

// Through a stack buffer: no heap traffic per varint.
void put_varint(std::ostream& out, std::uint64_t v) {
  std::uint8_t buf[kMaxVarintBytes];
  put_bytes(out, buf, varint_store(buf, v));
}

void put_blob(std::ostream& out, const Bytes& data) {
  put_varint(out, data.size());
  put_bytes(out, data.data(), data.size());
}

void get_bytes(std::istream& in, void* data, std::size_t size) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(in.gcount()) != size) {
    fail("rcm: truncated container");
  }
}

template <typename T>
T get_pod(std::istream& in) {
  T v;
  get_bytes(in, &v, sizeof(v));
  return v;
}

std::uint64_t get_varint(std::istream& in) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const int c = in.get();
    if (c == EOF) fail("rcm: truncated varint");
    if (shift >= 64) fail("rcm: overlong varint");
    v |= static_cast<std::uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) return v;
    shift += 7;
  }
}

// Bytes left between the stream's read position and its end, or SIZE_MAX
// when the stream is not seekable. Used to sanity-bound untrusted counts
// before allocating for them.
std::size_t remaining_bytes(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return SIZE_MAX;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return SIZE_MAX;
  return static_cast<std::size_t>(end - here);
}

Bytes get_blob(std::istream& in) {
  const std::uint64_t size = get_varint(in);
  if (size > remaining_bytes(in)) fail("rcm: blob length exceeds stream");
  Bytes data(size);
  get_bytes(in, data.data(), data.size());
  return data;
}

// Stream position as an unsigned file offset; fails when the stream is
// not seekable (the index and layout paths need real offsets).
std::uint64_t tell_out(std::ostream& out) {
  const std::ostream::pos_type p = out.tellp();
  if (p == std::ostream::pos_type(-1)) {
    fail("rcm: index requires a seekable stream");
  }
  return static_cast<std::uint64_t>(p);
}

std::uint64_t tell_in(std::istream& in) {
  const std::istream::pos_type p = in.tellg();
  if (p == std::istream::pos_type(-1)) {
    fail("rcm: layout requires a seekable stream");
  }
  return static_cast<std::uint64_t>(p);
}

}  // namespace

void write_container_header(std::ostream& out, const CompressedMatrix& cm) {
  put_bytes(out, kMagic, 4);
  put_pod<std::uint32_t>(out, kContainerVersion);
  put_pod<std::int32_t>(out, cm.rows);
  put_pod<std::int32_t>(out, cm.cols);
  put_pod<std::uint64_t>(out, cm.config.nnz_per_block);
  put_pod<std::uint8_t>(out, static_cast<std::uint8_t>(cm.config.index_transform));
  put_pod<std::uint8_t>(out, static_cast<std::uint8_t>(cm.config.value_transform));
  put_pod<std::uint8_t>(out, cm.config.snappy ? 1 : 0);
  put_pod<std::uint8_t>(out, cm.config.huffman ? 1 : 0);
  put_pod<std::uint8_t>(out, static_cast<std::uint8_t>(cm.config.selection));
  put_pod<double>(out, cm.config.huffman_sample_fraction);
  put_pod<std::uint64_t>(out, cm.config.sample_seed);

  // row_ptr as varint first-differences (monotone, so deltas are >= 0).
  put_varint(out, cm.row_ptr.size());
  sparse::offset_t prev = 0;
  for (const sparse::offset_t p : cm.row_ptr) {
    RECODE_CHECK(p >= prev);
    put_varint(out, static_cast<std::uint64_t>(p - prev));
    prev = p;
  }

  if (cm.config.huffman) {
    RECODE_CHECK(cm.index_table && cm.value_table);
    const Bytes it = cm.index_table->serialize();
    const Bytes vt = cm.value_table->serialize();
    put_bytes(out, it.data(), it.size());
    put_bytes(out, vt.data(), vt.size());
  }
}

void write_compressed(std::ostream& out, const CompressedMatrix& cm,
                      bool with_index) {
  write_container_header(out, cm);
  put_varint(out, cm.blocks.size());
  BlockIndex index;
  if (with_index) index.offsets.reserve(cm.blocks.size() + 1);
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    if (with_index) {
      index.offsets.push_back(tell_out(out));
      index.codec_ids.push_back(cm.block_codec_id(b));
    }
    put_pod<std::uint8_t>(out, cm.block_codec_id(b));
    put_blob(out, cm.blocks[b].index_data);
    put_blob(out, cm.blocks[b].value_data);
  }
  if (with_index) {
    const std::uint64_t index_offset = tell_out(out);
    index.offsets.push_back(index_offset);
    for (const std::uint64_t off : index.offsets) {
      put_pod<std::uint64_t>(out, off);
    }
    put_bytes(out, index.codec_ids.data(), index.codec_ids.size());
    put_pod<std::uint64_t>(out, index_offset);
    put_bytes(out, kIndexFooterMagic, sizeof(kIndexFooterMagic));
  }
  if (!out) fail("rcm: write failed");
}

namespace {

// Everything before the block records: magic through the block count,
// with all header validations, blocking plan, and the uniform
// block_codecs default. Leaves the stream positioned at the first
// block record. Returns the container version and block count.
struct HeaderInfo {
  std::uint32_t version = 0;
  std::uint64_t block_count = 0;
};

HeaderInfo read_header(std::istream& in, CompressedMatrix& cm) {
  char magic[4];
  get_bytes(in, magic, 4);
  if (std::memcmp(magic, kMagic, 4) != 0) fail("rcm: bad magic");
  const auto version = get_pod<std::uint32_t>(in);
  if (version != kContainerVersionV1 && version != kContainerVersion) {
    fail("rcm: unsupported version " + std::to_string(version));
  }

  cm.rows = get_pod<std::int32_t>(in);
  cm.cols = get_pod<std::int32_t>(in);
  if (cm.rows < 0 || cm.cols < 0) fail("rcm: negative dimensions");
  cm.config.nnz_per_block = get_pod<std::uint64_t>(in);
  if (cm.config.nnz_per_block == 0) fail("rcm: zero block size");
  // Decoders size per-block scratch buffers from this field; cap it so a
  // tampered header cannot demand absurd allocations (16M nnz = 128 MB of
  // values per block, far beyond any real configuration).
  if (cm.config.nnz_per_block > (1u << 24)) fail("rcm: block size too large");
  const auto it_raw = get_pod<std::uint8_t>(in);
  const auto vt_raw = get_pod<std::uint8_t>(in);
  // v1 predates the byte-transposition value transform (id 3).
  if (it_raw > 2 || vt_raw > (version == kContainerVersionV1 ? 2 : 3)) {
    fail("rcm: unknown transform");
  }
  cm.config.index_transform = static_cast<Transform>(it_raw);
  cm.config.value_transform = static_cast<Transform>(vt_raw);
  cm.config.snappy = get_pod<std::uint8_t>(in) != 0;
  cm.config.huffman = get_pod<std::uint8_t>(in) != 0;
  if (version >= kContainerVersion) {
    const auto sel_raw = get_pod<std::uint8_t>(in);
    if (sel_raw > 2) fail("rcm: unknown codec selection mode");
    cm.config.selection = static_cast<CodecSelection>(sel_raw);
  }
  cm.config.huffman_sample_fraction = get_pod<double>(in);
  cm.config.sample_seed = get_pod<std::uint64_t>(in);

  const std::uint64_t row_count = get_varint(in);
  if (row_count != static_cast<std::uint64_t>(cm.rows) + 1) {
    fail("rcm: row_ptr count mismatch");
  }
  // Every row_ptr delta takes at least one stream byte, so a row count
  // beyond the remaining stream is corruption — check before resizing.
  if (row_count > remaining_bytes(in)) {
    fail("rcm: row_ptr count exceeds stream");
  }
  cm.row_ptr.resize(row_count);
  sparse::offset_t acc = 0;
  for (auto& p : cm.row_ptr) {
    const std::uint64_t delta = get_varint(in);
    if (delta > static_cast<std::uint64_t>(
                    std::numeric_limits<sparse::offset_t>::max() - acc)) {
      fail("rcm: row_ptr overflow");
    }
    acc += static_cast<sparse::offset_t>(delta);
    p = acc;
  }
  if (!cm.row_ptr.empty() && cm.row_ptr.front() != 0) {
    fail("rcm: row_ptr must start at 0");
  }

  if (cm.config.huffman) {
    Bytes it(128), vt(128);
    get_bytes(in, it.data(), it.size());
    get_bytes(in, vt.data(), vt.size());
    cm.index_table =
        std::make_shared<const HuffmanTable>(HuffmanTable::deserialize(it));
    cm.value_table =
        std::make_shared<const HuffmanTable>(HuffmanTable::deserialize(vt));
  }

  const std::uint64_t block_count = get_varint(in);
  // Validate the count arithmetically before make_blocking allocates a
  // plan sized by it: a tampered row_ptr tail would otherwise drive a
  // huge reservation. Each block also needs >= 2 stream bytes (two blob
  // length prefixes), so the count is bounded by the remaining stream.
  const auto nnz = static_cast<std::uint64_t>(cm.row_ptr.back());
  const std::uint64_t expected_blocks =
      (nnz + cm.config.nnz_per_block - 1) / cm.config.nnz_per_block;
  if (block_count != expected_blocks) {
    fail("rcm: block count disagrees with row_ptr/nnz_per_block");
  }
  if (block_count > remaining_bytes(in)) {
    fail("rcm: block count exceeds stream");
  }
  cm.blocking =
      sparse::make_blocking(std::span<const sparse::offset_t>(cm.row_ptr),
                            cm.config.nnz_per_block);
  cm.block_codecs.assign(block_count, codec_id_for(cm.config));
  return {version, block_count};
}

}  // namespace

CompressedMatrix read_compressed(std::istream& in) {
  CompressedMatrix cm;
  const HeaderInfo hdr = read_header(in, cm);
  cm.blocks.resize(hdr.block_count);
  for (std::size_t b = 0; b < hdr.block_count; ++b) {
    if (hdr.version >= kContainerVersion) {
      cm.block_codecs[b] = get_pod<std::uint8_t>(in);
    }
    cm.blocks[b].index_data = get_blob(in);
    cm.blocks[b].value_data = get_blob(in);
  }
  // Validate every per-block id through the registry gate before handing
  // the matrix to a decode engine: unknown ids and huffman-stage ids in a
  // tableless container fail here with the engines' exact messages.
  for (std::size_t b = 0; b < hdr.block_count; ++b) block_codec_checked(cm, b);
  for (const auto& b : cm.blocks) {
    cm.index_stages.after_huffman += b.index_data.size();
    cm.value_stages.after_huffman += b.value_data.size();
  }
  return cm;
}

namespace {

// Loads the footer index when the file ends with one. Returns false
// when there is no footer (caller falls back to scanning); throws on a
// footer whose arithmetic or offsets are inconsistent — a present but
// broken index is corruption, not a missing feature.
bool try_read_footer_index(std::istream& in, std::uint64_t file_size,
                           std::uint64_t block_section_offset,
                           std::uint64_t block_count, BlockIndex& index) {
  if (file_size < block_section_offset + kIndexFooterBytes) return false;
  in.clear();
  in.seekg(static_cast<std::streamoff>(file_size - kIndexFooterBytes));
  const auto index_offset = get_pod<std::uint64_t>(in);
  char magic[sizeof(kIndexFooterMagic)];
  get_bytes(in, magic, sizeof(magic));
  if (std::memcmp(magic, kIndexFooterMagic, sizeof(magic)) != 0) return false;

  // (n + 1) u64 offsets + n codec-id bytes + the footer itself must end
  // exactly at EOF, and the section must sit after the block records.
  const std::uint64_t index_bytes = (block_count + 1) * 8 + block_count;
  if (index_offset < block_section_offset ||
      index_offset + index_bytes + kIndexFooterBytes != file_size) {
    fail("rcm: index footer arithmetic mismatch");
  }
  in.seekg(static_cast<std::streamoff>(index_offset));
  index.offsets.resize(block_count + 1);
  for (auto& off : index.offsets) off = get_pod<std::uint64_t>(in);
  index.codec_ids.resize(block_count);
  if (block_count > 0) {
    get_bytes(in, index.codec_ids.data(), index.codec_ids.size());
  }
  if (index.offsets.front() != block_section_offset) {
    fail("rcm: index does not start at block section");
  }
  if (index.offsets.back() != index_offset) {
    fail("rcm: index offsets exceed block section");
  }
  for (std::size_t b = 0; b < block_count; ++b) {
    // Strictly increasing: every record is at least its codec-id byte
    // plus two length prefixes, so equal or reordered offsets mean
    // overlapping extents.
    if (index.offsets[b + 1] <= index.offsets[b]) {
      fail("rcm: index offsets not increasing");
    }
  }
  index.from_footer = true;
  return true;
}

// Rebuilds the index with one forward scan of the record framing
// (codec-id byte + two length-prefixed blobs), seeking past payloads.
BlockIndex scan_block_index(std::istream& in, std::uint64_t file_size,
                            std::uint32_t version, std::uint64_t block_count,
                            const CompressedMatrix& cm) {
  BlockIndex index;
  index.offsets.reserve(block_count + 1);
  index.codec_ids.reserve(block_count);
  for (std::uint64_t b = 0; b < block_count; ++b) {
    index.offsets.push_back(tell_in(in));
    std::uint8_t id = cm.block_codec_id(static_cast<std::size_t>(b));
    if (version >= kContainerVersion) id = get_pod<std::uint8_t>(in);
    index.codec_ids.push_back(id);
    for (int stream = 0; stream < 2; ++stream) {
      const std::uint64_t len = get_varint(in);
      const std::uint64_t here = tell_in(in);
      if (len > file_size - here) fail("rcm: blob length exceeds stream");
      in.seekg(static_cast<std::streamoff>(len), std::ios::cur);
    }
  }
  index.offsets.push_back(tell_in(in));
  index.from_footer = false;
  return index;
}

}  // namespace

ContainerLayout read_container_layout(std::istream& in) {
  ContainerLayout layout;
  const std::istream::pos_type start = in.tellg();
  if (start == std::istream::pos_type(-1)) {
    fail("rcm: layout requires a seekable stream");
  }
  in.seekg(0, std::ios::end);
  layout.file_size = tell_in(in);
  in.seekg(start);

  const HeaderInfo hdr = read_header(in, layout.matrix);
  layout.version = hdr.version;
  layout.block_section_offset = tell_in(in);
  if (!try_read_footer_index(in, layout.file_size,
                             layout.block_section_offset, hdr.block_count,
                             layout.index)) {
    in.clear();
    in.seekg(static_cast<std::streamoff>(layout.block_section_offset));
    layout.index = scan_block_index(in, layout.file_size, hdr.version,
                                    hdr.block_count, layout.matrix);
  }
  // The layout's codec ids are authoritative for header-only use; run
  // them through the same registry gate read_compressed applies.
  layout.matrix.block_codecs.assign(layout.index.codec_ids.begin(),
                                    layout.index.codec_ids.end());
  for (std::size_t b = 0; b < layout.index.block_count(); ++b) {
    block_codec_checked(layout.matrix, b);
  }
  return layout;
}

void write_compressed_file(const std::string& path, const CompressedMatrix& cm,
                           bool with_index) {
  FileSink sink(path);
  std::ostream out(&sink);
  out.exceptions(std::ios::badbit);  // the sink's errors name the path
  write_compressed(out, cm, with_index);
  sink.finish(tell_out(out));
}

CompressedMatrix read_compressed_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("rcm: cannot open: " + path);
  try {
    return read_compressed(in);
  } catch (const Error& e) {
    fail(std::string(e.what()) + " (file: " + path + ")");
  }
}

ContainerLayout read_container_layout_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("rcm: cannot open: " + path);
  try {
    return read_container_layout(in);
  } catch (const Error& e) {
    fail(std::string(e.what()) + " (file: " + path + ")");
  }
}

}  // namespace recode::codec
