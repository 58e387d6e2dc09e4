// Compressed Sparse Row matrix.
//
// The canonical computational format of the library.  Invariants
// (enforced by from_coo and checked by check_csr_arrays, which both
// Csr::check_invariants and the zero-copy view's check_view_invariants
// run):
//   * rowptr has rows+1 entries, rowptr[0] == 0, non-decreasing;
//   * column indices within each row are strictly increasing (sorted,
//     no duplicates) and < cols;
//   * values parallel colind; stored zeros are allowed only if the caller
//     constructs them explicitly (from_coo combines duplicates with +).
//
// Adjacency submatrices W_i of the paper (|U_{i-1}| x |U_i|, entry (r,c)
// nonzero iff edge r -> c) are Csr<pattern_t>; weighted layers are
// Csr<float>; path-count matrices are Csr<BigUInt>.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/types.hpp"
#include "support/error.hpp"

namespace radix {

/// Validate the CSR invariants of raw arrays, calling `fail(message)`
/// (which must throw) on the first violation: rowptr has rows+1 entries
/// starting at 0 and ending at nnz, non-decreasing, each entry bounded
/// by nnz before its row is read; column indices strictly increasing
/// within each row and < cols; `num_values` == nnz.
template <typename FailFn>
void check_csr_arrays(index_t rows, index_t cols,
                      std::span<const offset_t> rowptr,
                      std::span<const index_t> colind, std::size_t num_values,
                      FailFn&& fail) {
  if (rowptr.size() != static_cast<std::size_t>(rows) + 1) {
    fail("rowptr size != rows + 1");
  }
  if (rowptr.front() != 0) fail("rowptr[0] != 0");
  if (rowptr.back() != colind.size()) fail("rowptr back != nnz");
  if (colind.size() != num_values) fail("colind/values size mismatch");
  for (index_t r = 0; r < rows; ++r) {
    if (rowptr[r] > rowptr[r + 1]) fail("rowptr not monotone");
    // Bound the row before its loop reads colind: monotonicity alone
    // lets an interior entry run past nnz.
    if (rowptr[r + 1] > colind.size()) fail("rowptr entry past nnz");
    for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
      if (colind[k] >= cols) fail("column index out of range");
      if (k > rowptr[r] && colind[k - 1] >= colind[k]) {
        fail("columns not strictly increasing within row");
      }
    }
  }
}

template <typename T>
class Csr {
 public:
  using value_type = T;

  /// Empty 0x0 matrix.
  Csr() : rowptr_(1, 0) {}

  /// All-zero matrix of the given shape.
  Csr(index_t rows, index_t cols)
      : rows_(rows), cols_(cols), rowptr_(static_cast<std::size_t>(rows) + 1, 0) {}

  /// Adopt raw CSR arrays; validates invariants.
  Csr(index_t rows, index_t cols, std::vector<offset_t> rowptr,
      std::vector<index_t> colind, std::vector<T> val)
      : rows_(rows),
        cols_(cols),
        rowptr_(std::move(rowptr)),
        colind_(std::move(colind)),
        val_(std::move(val)) {
    check_invariants();
  }

  /// Canonicalize a COO matrix: stable ordering, duplicates combined with
  /// semiring addition (operator+ of T).
  static Csr from_coo(const Coo<T>& coo);

  /// Identity pattern of size n (value one on the diagonal).
  static Csr identity(index_t n, T one_value = T{1});

  /// Dense constant matrix of ones (used for the W* factors of eq. (3)).
  static Csr ones(index_t rows, index_t cols, T one_value = T{1});

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return colind_.size(); }

  const std::vector<offset_t>& rowptr() const noexcept { return rowptr_; }
  const std::vector<index_t>& colind() const noexcept { return colind_; }
  const std::vector<T>& values() const noexcept { return val_; }
  std::vector<T>& values() noexcept { return val_; }

  /// Column indices of row r.
  std::span<const index_t> row_cols(index_t r) const {
    RADIX_REQUIRE_DIM(r < rows_, "Csr::row_cols: row out of range");
    return {colind_.data() + rowptr_[r],
            static_cast<std::size_t>(rowptr_[r + 1] - rowptr_[r])};
  }

  /// Values of row r.
  std::span<const T> row_vals(index_t r) const {
    RADIX_REQUIRE_DIM(r < rows_, "Csr::row_vals: row out of range");
    return {val_.data() + rowptr_[r],
            static_cast<std::size_t>(rowptr_[r + 1] - rowptr_[r])};
  }

  std::span<T> row_vals_mut(index_t r) {
    RADIX_REQUIRE_DIM(r < rows_, "Csr::row_vals_mut: row out of range");
    return {val_.data() + rowptr_[r],
            static_cast<std::size_t>(rowptr_[r + 1] - rowptr_[r])};
  }

  offset_t row_nnz(index_t r) const {
    RADIX_REQUIRE_DIM(r < rows_, "Csr::row_nnz: row out of range");
    return rowptr_[r + 1] - rowptr_[r];
  }

  /// Value at (r, c), or T{} when the entry is not stored.
  T at(index_t r, index_t c) const {
    auto cols = row_cols(r);
    auto it = std::lower_bound(cols.begin(), cols.end(), c);
    if (it == cols.end() || *it != c) return T{};
    return val_[rowptr_[r] + static_cast<offset_t>(it - cols.begin())];
  }

  /// True iff the entry (r, c) is stored.
  bool contains(index_t r, index_t c) const {
    auto cols = row_cols(r);
    return std::binary_search(cols.begin(), cols.end(), c);
  }

  /// Transpose (CSC of this matrix reinterpreted as CSR).
  Csr transpose() const;

  /// Structure-preserving value map to another value type.
  template <typename U, typename F>
  Csr<U> map(F&& f) const {
    std::vector<U> vals(val_.size());
    for (std::size_t i = 0; i < val_.size(); ++i) vals[i] = f(val_[i]);
    return Csr<U>(rows_, cols_, rowptr_, colind_, std::move(vals));
  }

  /// Connectivity pattern (all stored entries become 1).
  Csr<pattern_t> pattern() const {
    return map<pattern_t>([](const T&) { return pattern_t{1}; });
  }

  /// Number of structurally empty rows (out-degree 0 in adjacency terms).
  index_t count_empty_rows() const noexcept {
    index_t n = 0;
    for (index_t r = 0; r < rows_; ++r)
      if (rowptr_[r + 1] == rowptr_[r]) ++n;
    return n;
  }

  /// Number of structurally empty columns (in-degree 0).
  index_t count_empty_cols() const {
    std::vector<bool> seen(cols_, false);
    for (index_t c : colind_) seen[c] = true;
    return static_cast<index_t>(
        std::count(seen.begin(), seen.end(), false));
  }

  /// Structural equality (shape, pattern, and values).
  friend bool operator==(const Csr& a, const Csr& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
           a.rowptr_ == b.rowptr_ && a.colind_ == b.colind_ &&
           a.val_ == b.val_;
  }

  /// Validate all CSR invariants; throws InternalError on violation.
  void check_invariants() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<offset_t> rowptr_;
  std::vector<index_t> colind_;
  std::vector<T> val_;
};

template <typename T>
Csr<T> Csr<T>::from_coo(const Coo<T>& coo) {
  const std::size_t nz = coo.nnz();
  // Counting sort by row, then sort each row segment by column and merge
  // duplicates.  O(nnz log rowlen) and allocation-light.
  std::vector<offset_t> rowptr(static_cast<std::size_t>(coo.rows) + 1, 0);
  for (index_t r : coo.row) {
    RADIX_REQUIRE_DIM(r < coo.rows, "Csr::from_coo: row index out of range");
    ++rowptr[r + 1];
  }
  for (std::size_t r = 0; r < coo.rows; ++r) rowptr[r + 1] += rowptr[r];

  std::vector<index_t> colind(nz);
  std::vector<T> val(nz);
  {
    std::vector<offset_t> cursor(rowptr.begin(), rowptr.end() - 1);
    for (std::size_t i = 0; i < nz; ++i) {
      RADIX_REQUIRE_DIM(coo.col[i] < coo.cols,
                        "Csr::from_coo: col index out of range");
      const offset_t dst = cursor[coo.row[i]]++;
      colind[dst] = coo.col[i];
      val[dst] = coo.val[i];
    }
  }

  // Sort within each row and combine duplicates by addition.
  std::vector<offset_t> out_rowptr(rowptr.size(), 0);
  offset_t write = 0;
  std::vector<std::size_t> order;
  for (index_t r = 0; r < coo.rows; ++r) {
    const offset_t lo = rowptr[r], hi = rowptr[r + 1];
    order.resize(hi - lo);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                return colind[lo + a] < colind[lo + b];
              });
    std::vector<index_t> rcols;
    std::vector<T> rvals;
    rcols.reserve(order.size());
    rvals.reserve(order.size());
    for (std::size_t k : order) {
      const index_t c = colind[lo + k];
      if (!rcols.empty() && rcols.back() == c) {
        rvals.back() = rvals.back() + val[lo + k];
      } else {
        rcols.push_back(c);
        rvals.push_back(val[lo + k]);
      }
    }
    for (std::size_t i = 0; i < rcols.size(); ++i) {
      colind[write + i] = rcols[i];
      val[write + i] = rvals[i];
    }
    write += rcols.size();
    out_rowptr[r + 1] = write;
  }
  colind.resize(write);
  val.resize(write);
  return Csr(coo.rows, coo.cols, std::move(out_rowptr), std::move(colind),
             std::move(val));
}

template <typename T>
Csr<T> Csr<T>::identity(index_t n, T one_value) {
  std::vector<offset_t> rowptr(static_cast<std::size_t>(n) + 1);
  std::vector<index_t> colind(n);
  std::vector<T> val(n, one_value);
  for (index_t i = 0; i <= n; ++i) rowptr[i] = i;
  for (index_t i = 0; i < n; ++i) colind[i] = i;
  return Csr(n, n, std::move(rowptr), std::move(colind), std::move(val));
}

template <typename T>
Csr<T> Csr<T>::ones(index_t rows, index_t cols, T one_value) {
  std::vector<offset_t> rowptr(static_cast<std::size_t>(rows) + 1);
  std::vector<index_t> colind(static_cast<std::size_t>(rows) * cols);
  std::vector<T> val(colind.size(), one_value);
  for (index_t r = 0; r <= rows; ++r)
    rowptr[r] = static_cast<offset_t>(r) * cols;
  for (index_t r = 0; r < rows; ++r)
    for (index_t c = 0; c < cols; ++c)
      colind[static_cast<std::size_t>(r) * cols + c] = c;
  return Csr(rows, cols, std::move(rowptr), std::move(colind),
             std::move(val));
}

/// Transpose raw CSR arrays into an owning matrix (CSC reinterpreted as
/// CSR); Csr::transpose and CsrFloatView::transpose both run it.
template <typename T>
Csr<T> transpose_csr_arrays(index_t rows, index_t cols,
                            std::span<const offset_t> rowptr,
                            std::span<const index_t> colind,
                            std::span<const T> val) {
  std::vector<offset_t> t_rowptr(static_cast<std::size_t>(cols) + 1, 0);
  for (index_t c : colind) ++t_rowptr[c + 1];
  for (index_t c = 0; c < cols; ++c) t_rowptr[c + 1] += t_rowptr[c];
  std::vector<index_t> t_colind(colind.size());
  std::vector<T> t_val(colind.size());
  std::vector<offset_t> cursor(t_rowptr.begin(), t_rowptr.end() - 1);
  for (index_t r = 0; r < rows; ++r) {
    for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
      const offset_t dst = cursor[colind[k]]++;
      t_colind[dst] = r;
      t_val[dst] = val[k];
    }
  }
  return Csr<T>(cols, rows, std::move(t_rowptr), std::move(t_colind),
                std::move(t_val));
}

template <typename T>
Csr<T> Csr<T>::transpose() const {
  return transpose_csr_arrays<T>(rows_, cols_, rowptr_, colind_, val_);
}

template <typename T>
void Csr<T>::check_invariants() const {
  check_csr_arrays(rows_, cols_, rowptr_, colind_, val_.size(),
                   [](const char* msg) {
                     throw InternalError(std::string("Csr: ") + msg);
                   });
}

}  // namespace radix
