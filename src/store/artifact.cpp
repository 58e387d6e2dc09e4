#include "store/artifact.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "graph/fnnt.hpp"
#include "radixnet/builder.hpp"
#include "radixnet/serialize.hpp"
#include "store/checksum.hpp"
#include "store/durable.hpp"

namespace radix::store {

namespace {

std::uint64_t align_up(std::uint64_t v) {
  return (v + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

// One payload queued for writing: the writer borrows the source bytes
// (layer arrays are not copied on save either -- they stream from the
// engine's views straight into the file buffer).
struct Payload {
  SectionKind kind;
  std::uint32_t layer;
  const void* data;
  std::uint64_t size;
  std::uint64_t count;
  std::uint32_t elem_size;
};

void append_bytes(std::vector<std::uint8_t>& out, const void* p,
                  std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, p, n);
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, T v) {
  append_bytes(out, &v, sizeof(v));
}

std::vector<std::uint8_t> encode_meta(const std::string& name, float clamp,
                                      std::uint32_t layer_count) {
  std::vector<std::uint8_t> meta;
  append_pod(meta, static_cast<std::uint32_t>(name.size()));
  append_bytes(meta, name.data(), name.size());
  append_pod(meta, clamp);
  append_pod(meta, layer_count);
  return meta;
}

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw IoError(what + " " + path + ": " + std::strerror(errno));
}

// Assemble the whole artifact in memory, then commit it through
// write_durably, so a crash mid-save never leaves a torn file under the
// final name.
void commit_artifact(const std::string& path, std::uint32_t flags,
                     const std::vector<Payload>& payloads) {
  const std::uint32_t nsec = static_cast<std::uint32_t>(payloads.size());
  std::uint64_t off = align_up(sizeof(FileHeader) +
                               sizeof(SectionEntry) * nsec);

  std::vector<SectionEntry> table(nsec);
  for (std::uint32_t i = 0; i < nsec; ++i) {
    const Payload& p = payloads[i];
    SectionEntry& e = table[i];
    std::memset(&e, 0, sizeof(e));
    e.kind = static_cast<std::uint32_t>(p.kind);
    e.layer = p.layer;
    e.offset = off;
    e.size = p.size;
    e.hash = xxh64(p.data, p.size);
    e.count = p.count;
    e.elem_size = p.elem_size;
    off = align_up(off + p.size);
  }
  const std::uint64_t file_size =
      nsec == 0 ? align_up(sizeof(FileHeader))
                : table.back().offset + table.back().size;

  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.flags = flags;
  header.section_count = nsec;
  header.file_size = file_size;
  header.header_hash = 0;

  std::vector<std::uint8_t> file;
  file.reserve(file_size);
  append_bytes(file, &header, sizeof(header));
  for (const SectionEntry& e : table) append_bytes(file, &e, sizeof(e));
  // Hash the metadata prefix with the hash field still zero, then patch
  // it in place.
  const std::uint64_t header_hash = xxh64(file.data(), file.size());
  std::memcpy(file.data() + offsetof(FileHeader, header_hash), &header_hash,
              sizeof(header_hash));
  for (std::uint32_t i = 0; i < nsec; ++i) {
    file.resize(table[i].offset, 0);  // alignment padding
    append_bytes(file, payloads[i].data, payloads[i].size);
  }

  write_durably(path, std::as_bytes(std::span(file)));
}

}  // namespace

void save_artifact(const std::string& path, const infer::SparseDnn& dnn,
                   const std::string& name) {
  const auto layer_count = static_cast<std::uint32_t>(dnn.depth());
  const std::vector<std::uint8_t> meta =
      encode_meta(name, dnn.clamp(), layer_count);

  std::vector<std::uint32_t> dims;
  dims.reserve(2 * layer_count);
  for (std::uint32_t k = 0; k < layer_count; ++k) {
    dims.push_back(dnn.layer_view(k).rows());
    dims.push_back(dnn.layer_view(k).cols());
  }

  std::vector<Payload> payloads;
  payloads.push_back({SectionKind::kMeta, kNoLayer, meta.data(), meta.size(),
                      1, static_cast<std::uint32_t>(meta.size())});
  payloads.push_back({SectionKind::kLayerDims, kNoLayer, dims.data(),
                      dims.size() * sizeof(std::uint32_t), dims.size(),
                      sizeof(std::uint32_t)});
  payloads.push_back({SectionKind::kBiases, kNoLayer, dnn.biases().data(),
                      dnn.biases().size() * sizeof(float),
                      dnn.biases().size(), sizeof(float)});
  for (std::uint32_t k = 0; k < layer_count; ++k) {
    const CsrFloatView v = dnn.layer_view(k);
    payloads.push_back({SectionKind::kRowPtr, k, v.rowptr().data(),
                        v.rowptr().size() * sizeof(offset_t),
                        v.rowptr().size(), sizeof(offset_t)});
    payloads.push_back({SectionKind::kColIdx, k, v.colind().data(),
                        v.colind().size() * sizeof(index_t),
                        v.colind().size(), sizeof(index_t)});
    payloads.push_back({SectionKind::kValues, k, v.values().data(),
                        v.values().size() * sizeof(float),
                        v.values().size(), sizeof(float)});
  }
  commit_artifact(path, 0, payloads);
}

void save_spec_artifact(const std::string& path, const RadixNetSpec& spec,
                        std::span<const float> layer_weights,
                        std::span<const float> biases, float clamp,
                        const std::string& name) {
  RADIX_REQUIRE(layer_weights.size() == biases.size(),
                "save_spec_artifact: one weight and one bias per layer");
  const auto layer_count = static_cast<std::uint32_t>(layer_weights.size());
  const std::vector<std::uint8_t> meta = encode_meta(name, clamp,
                                                     layer_count);
  const std::string text = spec_to_text(spec);

  std::vector<Payload> payloads;
  payloads.push_back({SectionKind::kMeta, kNoLayer, meta.data(), meta.size(),
                      1, static_cast<std::uint32_t>(meta.size())});
  payloads.push_back({SectionKind::kSpec, kNoLayer, text.data(), text.size(),
                      text.size(), 1});
  payloads.push_back({SectionKind::kLayerWeights, kNoLayer,
                      layer_weights.data(),
                      layer_weights.size() * sizeof(float),
                      layer_weights.size(), sizeof(float)});
  payloads.push_back({SectionKind::kBiases, kNoLayer, biases.data(),
                      biases.size() * sizeof(float), biases.size(),
                      sizeof(float)});
  commit_artifact(path, kFlagSpecOnly, payloads);
}

// --- Reader ----------------------------------------------------------------

class ArtifactReader::Mapping {
 public:
  Mapping(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw_errno("artifact: cannot open", path);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      (void)::close(fd);
      throw_errno("artifact: stat failed", path);
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ == 0) {
      (void)::close(fd);
      throw TruncatedError(path + ": empty file");
    }
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    (void)::close(fd);
    if (p == MAP_FAILED) throw_errno("artifact: mmap failed", path);
    base_ = static_cast<const std::uint8_t*>(p);
  }
  ~Mapping() {
    if (base_ != nullptr) {
      (void)::munmap(const_cast<std::uint8_t*>(base_), size_);
    }
  }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  const std::uint8_t* base() const noexcept { return base_; }
  std::size_t size() const noexcept { return size_; }

 private:
  const std::uint8_t* base_ = nullptr;
  std::size_t size_ = 0;
};

ArtifactReader::ArtifactReader(const std::string& path)
    : path_(path), map_(std::make_shared<const Mapping>(path)) {
  const std::uint8_t* base = map_->base();
  const std::size_t size = map_->size();
  if (size < sizeof(FileHeader)) {
    throw TruncatedError(path + ": shorter than the file header");
  }
  std::memcpy(&header_, base, sizeof(header_));
  if (std::memcmp(header_.magic, kMagic, sizeof(kMagic)) != 0) {
    throw FormatError(path + ": bad magic (not a RADIXART artifact)");
  }
  if (header_.version != kFormatVersion) {
    throw FormatError(path + ": unsupported format version " +
                      std::to_string(header_.version));
  }
  const std::uint64_t table_end =
      sizeof(FileHeader) +
      static_cast<std::uint64_t>(header_.section_count) *
          sizeof(SectionEntry);
  if (table_end > size) {
    throw TruncatedError(path + ": section table past end of file");
  }
  // Header hash covers header + table with the hash field zeroed.
  {
    std::vector<std::uint8_t> prefix(base, base + table_end);
    std::memset(prefix.data() + offsetof(FileHeader, header_hash), 0,
                sizeof(std::uint64_t));
    if (xxh64(prefix.data(), prefix.size()) != header_.header_hash) {
      throw ChecksumError(path + ": header/section-table hash mismatch");
    }
  }
  if (header_.file_size != size) {
    throw TruncatedError(path + ": header claims " +
                         std::to_string(header_.file_size) + " bytes, file has " +
                         std::to_string(size));
  }

  sections_.resize(header_.section_count);
  std::memcpy(sections_.data(), base + sizeof(FileHeader),
              sections_.size() * sizeof(SectionEntry));
  for (const SectionEntry& s : sections_) {
    if (s.offset % kSectionAlign != 0) {
      throw FormatError(path + ": section payload not 64-byte aligned");
    }
    if (s.offset > size || s.size > size - s.offset) {
      throw TruncatedError(path + ": section payload past end of file");
    }
    // Divide instead of multiplying so a hostile count cannot wrap.
    if (s.elem_size == 0 || s.size % s.elem_size != 0 ||
        s.count != s.size / s.elem_size) {
      throw FormatError(path + ": section size / element count mismatch");
    }
    if (xxh64(base + s.offset, s.size) != s.hash) {
      throw ChecksumError(path + ": section " + std::to_string(s.kind) +
                          " payload hash mismatch");
    }
  }

  // Decode kMeta: name, clamp, layer count.
  const SectionEntry& meta = require(SectionKind::kMeta);
  const std::uint8_t* m = payload(meta);
  if (meta.size < sizeof(std::uint32_t)) {
    throw FormatError(path + ": meta section too small");
  }
  std::uint32_t name_len;
  std::memcpy(&name_len, m, sizeof(name_len));
  if (meta.size < sizeof(std::uint32_t) + name_len + sizeof(float) +
                      sizeof(std::uint32_t)) {
    throw FormatError(path + ": meta section too small for its name");
  }
  name_.assign(reinterpret_cast<const char*>(m + sizeof(std::uint32_t)),
               name_len);
  std::memcpy(&clamp_, m + sizeof(std::uint32_t) + name_len, sizeof(clamp_));
  std::memcpy(&layer_count_,
              m + sizeof(std::uint32_t) + name_len + sizeof(float),
              sizeof(layer_count_));
  if (layer_count_ == 0) {
    throw FormatError(path + ": artifact declares zero layers");
  }
}

bool ArtifactReader::spec_only() const noexcept {
  return (header_.flags & kFlagSpecOnly) != 0;
}

std::uint64_t ArtifactReader::file_size() const noexcept {
  return header_.file_size;
}

const std::uint8_t* ArtifactReader::mapped_base() const noexcept {
  return map_->base();
}

std::size_t ArtifactReader::mapped_size() const noexcept {
  return map_->size();
}

const SectionEntry* ArtifactReader::find(SectionKind kind,
                                         std::uint32_t layer) const {
  for (const SectionEntry& s : sections_) {
    if (s.kind == static_cast<std::uint32_t>(kind) && s.layer == layer) {
      return &s;
    }
  }
  return nullptr;
}

const SectionEntry& ArtifactReader::require(SectionKind kind,
                                            std::uint32_t layer) const {
  const SectionEntry* s = find(kind, layer);
  if (s == nullptr) {
    throw FormatError(path_ + ": missing section kind " +
                      std::to_string(static_cast<std::uint32_t>(kind)) +
                      (layer == kNoLayer
                           ? std::string()
                           : " for layer " + std::to_string(layer)));
  }
  return *s;
}

const std::uint8_t* ArtifactReader::payload(const SectionEntry& s) const {
  return map_->base() + s.offset;
}

infer::SparseDnn ArtifactReader::instantiate() const {
  const SectionEntry& biases_sec = require(SectionKind::kBiases);
  if (biases_sec.elem_size != sizeof(float) ||
      biases_sec.count != layer_count_) {
    throw FormatError(path_ + ": biases section does not match layer count");
  }
  const auto* bias_data = reinterpret_cast<const float*>(payload(biases_sec));
  std::vector<float> biases(bias_data, bias_data + layer_count_);

  if (spec_only()) {
    const SectionEntry& spec_sec = require(SectionKind::kSpec);
    const SectionEntry& w_sec = require(SectionKind::kLayerWeights);
    if (w_sec.elem_size != sizeof(float) || w_sec.count != layer_count_) {
      throw FormatError(path_ +
                        ": layer-weights section does not match layer count");
    }
    const std::string text(reinterpret_cast<const char*>(payload(spec_sec)),
                           spec_sec.size);
    // Text that parses but names an invalid net is artifact content, so
    // the RadixNetSpec or builder SpecError becomes a format error.
    const Fnnt topo = [&] {
      try {
        return build_radix_net(spec_from_text(text, path_));
      } catch (const SpecError& e) {
        throw FormatError(path_ + ": spec section names no valid net: " +
                          e.what());
      }
    }();
    if (topo.depth() != layer_count_) {
      throw FormatError(path_ + ": spec builds " +
                        std::to_string(topo.depth()) +
                        " layers, meta declares " +
                        std::to_string(layer_count_));
    }
    const auto* weights = reinterpret_cast<const float*>(payload(w_sec));
    std::vector<Csr<float>> layers;
    layers.reserve(layer_count_);
    for (std::uint32_t k = 0; k < layer_count_; ++k) {
      const float w = weights[k];
      layers.push_back(
          topo.layer(k).map<float>([w](pattern_t) { return w; }));
    }
    return infer::SparseDnn(std::move(layers), std::move(biases), clamp_);
  }

  const SectionEntry& dims_sec = require(SectionKind::kLayerDims);
  if (dims_sec.elem_size != sizeof(std::uint32_t) ||
      dims_sec.count != 2ull * layer_count_) {
    throw FormatError(path_ + ": layer-dims section does not match layer "
                              "count");
  }
  const auto* dims =
      reinterpret_cast<const std::uint32_t*>(payload(dims_sec));
  for (std::uint32_t k = 1; k < layer_count_; ++k) {
    if (dims[2 * k] != dims[2 * k - 1]) {
      throw FormatError(path_ + ": layer dims do not chain: layer " +
                        std::to_string(k) + " has " +
                        std::to_string(dims[2 * k]) + " rows, layer " +
                        std::to_string(k - 1) + " has " +
                        std::to_string(dims[2 * k - 1]) + " cols");
    }
  }
  std::vector<CsrFloatView> views;
  views.reserve(layer_count_);
  for (std::uint32_t k = 0; k < layer_count_; ++k) {
    const index_t rows = dims[2 * k];
    const index_t cols = dims[2 * k + 1];
    const SectionEntry& rp = require(SectionKind::kRowPtr, k);
    const SectionEntry& ci = require(SectionKind::kColIdx, k);
    const SectionEntry& va = require(SectionKind::kValues, k);
    if (rp.elem_size != sizeof(offset_t) ||
        rp.count != static_cast<std::uint64_t>(rows) + 1) {
      throw FormatError(path_ + ": layer " + std::to_string(k) +
                        " rowptr section does not match its dims");
    }
    if (ci.elem_size != sizeof(index_t) || va.elem_size != sizeof(float) ||
        ci.count != va.count) {
      throw FormatError(path_ + ": layer " + std::to_string(k) +
                        " colidx/values sections disagree");
    }
    // Zero-copy: spans directly over the 64-byte-aligned mapped payloads.
    const CsrFloatView v(
        rows, cols,
        {reinterpret_cast<const offset_t*>(payload(rp)), rp.count},
        {reinterpret_cast<const index_t*>(payload(ci)), ci.count},
        {reinterpret_cast<const float*>(payload(va)), va.count});
    check_view_invariants(v, [&](const char* msg) {
      throw FormatError(path_ + ": layer " + std::to_string(k) + ": " + msg);
    });
    views.push_back(v);
  }
  return infer::SparseDnn(std::move(views), std::move(biases), clamp_,
                          map_);
}

}  // namespace radix::store
