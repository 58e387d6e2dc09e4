#include "infer/workspace.hpp"

namespace radix::infer {

void InferenceWorkspace::reserve(index_t batch, index_t max_width,
                                 index_t max_input_width) {
  const std::size_t need =
      static_cast<std::size_t>(batch) * static_cast<std::size_t>(max_width);
  for (auto& b : buf_) {
    if (b.size() < need) b.resize(need);
  }
  const std::size_t pack_need = static_cast<std::size_t>(batch) *
                                static_cast<std::size_t>(max_input_width);
  if (pack_size_ < pack_need) {
    pack_ = std::make_unique_for_overwrite<float[]>(pack_need);
    pack_size_ = pack_need;
  }
}

}  // namespace radix::infer
