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
// check_view_invariants (same rules as Csr::check_invariants, but
// throwing the caller-supplied error type so the artifact reader can
// surface typed format errors).
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

  /// Transpose into an owning matrix (CSC reinterpreted as CSR), same
  /// algorithm as Csr::transpose but reading through the view.
  Csr<float> transpose() const {
    std::vector<offset_t> rowptr(static_cast<std::size_t>(cols_) + 1, 0);
    for (index_t c : colind_) ++rowptr[c + 1];
    for (index_t c = 0; c < cols_; ++c) rowptr[c + 1] += rowptr[c];
    std::vector<index_t> colind(nnz());
    std::vector<float> val(nnz());
    std::vector<offset_t> cursor(rowptr.begin(), rowptr.end() - 1);
    for (index_t r = 0; r < rows_; ++r) {
      for (offset_t k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
        const offset_t dst = cursor[colind_[k]]++;
        colind[dst] = r;
        val[dst] = val_[k];
      }
    }
    return Csr<float>(cols_, rows_, std::move(rowptr), std::move(colind),
                      std::move(val));
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::span<const offset_t> rowptr_;
  std::span<const index_t> colind_;
  std::span<const float> val_;
};

/// Validate the CSR invariants of a view over untrusted memory, calling
/// `fail(message)` (which must throw) on the first violation.  Rules
/// mirror Csr::check_invariants: rowptr has rows+1 entries starting at
/// 0 and ending at nnz, non-decreasing; column indices strictly
/// increasing within each row and < cols; values parallel colind.
template <typename FailFn>
void check_view_invariants(const CsrFloatView& v, FailFn&& fail) {
  if (v.rowptr().size() != static_cast<std::size_t>(v.rows()) + 1) {
    fail("rowptr size != rows + 1");
  }
  if (v.rowptr().front() != 0) fail("rowptr[0] != 0");
  if (v.rowptr().back() != v.colind().size()) fail("rowptr back != nnz");
  if (v.colind().size() != v.values().size()) {
    fail("colind/values size mismatch");
  }
  const auto rowptr = v.rowptr();
  const auto colind = v.colind();
  for (index_t r = 0; r < v.rows(); ++r) {
    if (rowptr[r] > rowptr[r + 1]) fail("rowptr not monotone");
    // Bound the row before its loop reads colind: monotonicity alone
    // lets an interior entry run past nnz.
    if (rowptr[r + 1] > colind.size()) fail("rowptr entry past nnz");
    for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
      if (colind[k] >= v.cols()) fail("column index out of range");
      if (k > rowptr[r] && colind[k - 1] >= colind[k]) {
        fail("columns not strictly increasing within row");
      }
    }
  }
}

}  // namespace radix
