#include "sparse/radix_layout.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace radix {

std::optional<RadixLayout> detect_radix_layout(const CsrFloatView& w) {
  const index_t n = w.rows();
  // Pass 2's cursors run up to 2N.
  if (n < 2 || n > std::numeric_limits<index_t>::max() / 2 ||
      w.cols() != n) {
    return std::nullopt;
  }
  const auto rowptr = w.rowptr();
  const auto colind = w.colind();
  // Columns strictly increase within a row, so R <= n fits index_t.
  const offset_t per_row = rowptr[1] - rowptr[0];
  if (per_row < 2) return std::nullopt;
  for (index_t i = 1; i < n; ++i) {
    if (rowptr[i + 1] - rowptr[i] != per_row) return std::nullopt;
  }
  const auto r = static_cast<index_t>(per_row);

  // A column of shift c has gaps of s between its consecutive rows,
  // circularly, except one gap of N - (R-1)*s after c itself.  The
  // stride comes from column 0, whose rows are the rows that start with
  // it: its largest circular gap is N - (R-1)*s.  Pass 2 checks the
  // stride against every column.
  index_t count0 = 0, first0 = 0, last0 = 0, gap0 = 0;
  for (index_t i = 0; i < n; ++i) {
    if (colind[rowptr[i]] != 0) continue;
    if (count0++ == 0) {
      first0 = i;
    } else {
      gap0 = std::max(gap0, i - last0);
    }
    last0 = i;
  }
  if (count0 != r) return std::nullopt;
  const index_t big = std::max(gap0, n - (last0 - first0));
  if ((n - big) % (r - 1) != 0) return std::nullopt;
  const index_t s = (n - big) / (r - 1);
  if (s == 0 || std::uint64_t{r} * s > n) return std::nullopt;

  // Pass 1: each column's rows arrive in ascending order.  With
  // R * s < N the shift is the row before the gap that is not s, or the
  // last row when no gap wraps.  With R * s = N every gap is s and a
  // column's rows are the residue class of its first row, which R
  // columns share; mark keeps that first row.
  const bool whole_classes = std::uint64_t{r} * s == n;
  std::vector<index_t> last(n, n), mark(n, n);  // n: none yet
  for (index_t i = 0; i < n; ++i) {
    for (offset_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const index_t col = colind[k];
      if (last[col] == n) {
        if (whole_classes) mark[col] = i;
      } else if (!whole_classes && i - last[col] != s) {
        mark[col] = last[col];
      }
      last[col] = i;
    }
  }

  // Each column's shift, into mark; no two columns may share one.  The
  // columns of one residue class take shifts rho, rho+s, ... in column
  // order.
  std::vector<index_t> taken(whole_classes ? s : 0);  // shifts per class
  RadixLayout layout{n, r, s, std::vector<index_t>(n, n)};  // n: unused
  for (index_t col = 0; col < n; ++col) {
    index_t sh = mark[col] != n ? mark[col] : last[col];
    if (whole_classes) {
      if (sh >= s || taken[sh] == r) return std::nullopt;
      sh += taken[sh]++ * s;
    }
    if (sh >= n || layout.store[sh] != n) return std::nullopt;
    layout.store[sh] = col;
    mark[col] = sh;
  }

  // Pass 2: every column holds exactly its shift's R inputs.  Each
  // column keeps a cursor, in `last`, on the next input of its ascending
  // order (radix_layout.hpp): the first at c - k*s for c's wrap range k,
  // then steps of s up to c, then c + N - (R-1)*s onward.  After R
  // matches the cursor is at N or beyond, so a column matches at most R
  // rows, and with R entries in each of N rows every column matches
  // exactly R.
  const index_t wrap = n - (r - 1) * s;
  for (index_t col = 0; col < n; ++col) {
    const index_t sh = mark[col];
    last[col] = sh - std::min(sh / s, r - 1) * s;
  }
  for (index_t i = 0; i < n; ++i) {
    for (offset_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const index_t col = colind[k];
      if (last[col] != i) return std::nullopt;
      last[col] = i == mark[col] ? i + wrap : i + s;
    }
  }
  return layout;
}

}  // namespace radix
