// Non-owning view of a float CSR matrix.
//
// CsrFloatView carries the shape plus spans over the three CSR arrays
// (rowptr / colind / values) without owning the storage.  It is the
// currency of the zero-copy load path: an mmap'd model artifact
// (store/artifact.hpp) exposes its 64-byte-aligned sections directly as
// views, and the fused SpMM kernels (sparse/spmm.hpp) consume views, so
// a loaded layer is never deserialized -- the kernels stream the mapped
// arrays in place.  A view is trivially copyable (two ints + three
// spans); whoever hands one out is responsible for keeping the backing
// storage alive (SparseDnn holds a shared_ptr keep-alive for borrowed
// layers).
//
// A view constructed from a Csr<float> inherits its invariants; a view
// over foreign memory can be checked explicitly with
// check_view_invariants (the same check_csr_arrays as
// Csr::check_invariants, but throwing the caller-supplied error type so
// the artifact reader can surface typed format errors).
#pragma once

#include <span>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace radix {

class CsrFloatView {
 public:
  CsrFloatView() = default;

  /// Implicit on purpose: every Csr<float> call site of the fused
  /// kernels keeps compiling unchanged.
  CsrFloatView(const Csr<float>& m)  // NOLINT(google-explicit-constructor)
      : rows_(m.rows()),
        cols_(m.cols()),
        rowptr_(m.rowptr()),
        colind_(m.colind()),
        val_(m.values()) {}

  /// View over raw CSR arrays (e.g. mapped artifact sections).  No
  /// validation here -- callers with untrusted input run
  /// check_view_invariants first.
  CsrFloatView(index_t rows, index_t cols, std::span<const offset_t> rowptr,
               std::span<const index_t> colind, std::span<const float> val)
      : rows_(rows), cols_(cols), rowptr_(rowptr), colind_(colind),
        val_(val) {}

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return colind_.size(); }

  std::span<const offset_t> rowptr() const noexcept { return rowptr_; }
  std::span<const index_t> colind() const noexcept { return colind_; }
  std::span<const float> values() const noexcept { return val_; }

  /// Materialize an owning copy (e.g. to build a transpose).
  Csr<float> to_csr() const {
    return Csr<float>(rows_, cols_,
                      std::vector<offset_t>(rowptr_.begin(), rowptr_.end()),
                      std::vector<index_t>(colind_.begin(), colind_.end()),
                      std::vector<float>(val_.begin(), val_.end()));
  }

  /// Transpose into an owning matrix (CSC reinterpreted as CSR).
  Csr<float> transpose() const {
    return transpose_csr_arrays<float>(rows_, cols_, rowptr_, colind_, val_);
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::span<const offset_t> rowptr_;
  std::span<const index_t> colind_;
  std::span<const float> val_;
};

/// Validate the CSR invariants of a view over untrusted memory, calling
/// `fail(message)` (which must throw) on the first violation, by the
/// rules of check_csr_arrays.
template <typename FailFn>
void check_view_invariants(const CsrFloatView& v, FailFn&& fail) {
  check_csr_arrays(v.rows(), v.cols(), v.rowptr(), v.colind(),
                   v.values().size(), fail);
}

}  // namespace radix
