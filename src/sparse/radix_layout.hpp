// Mixed-radix structure of a square layer, detected from its CSR arrays.
//
// A mixed-radix transition (KepnerR19 eq. (1)) on N nodes with radix R
// and stride s connects input j to outputs (j + n*s) mod N for n < R, so
// output c reads inputs (c - n*s) mod N.  RadiX-Net layers are exactly
// such transitions, and a Graph-Challenge network that shuffles neuron
// ids relabels each layer's outputs (W <- W * Pi).  A RadixLayout names
// the transition and that relabeling: output column store[c] of the
// layer is the transition's output c.
//
// The layout fixes each output's ascending input order.  The outputs
// split into R wrap ranges, [k*s, (k+1)*s) for k < R-1 and
// [(R-1)*s, N) for k = R-1.  An output c of range k reads, in ascending
// order, c - n*s for n = k..0 (no wrap), then c - n*s + N for
// n = R-1..k+1 (wrapped).  Every output of one range reads its inputs at
// the same offsets from c, which is what lets the structured gather
// kernel (spmm_dense_radix_fused_uniform, sparse/spmm.hpp) add
// consecutive outputs as vectors with no per-edge index.
#pragma once

#include <optional>
#include <vector>

#include "sparse/csr_view.hpp"
#include "sparse/types.hpp"

namespace radix {

struct RadixLayout {
  index_t width = 0;   ///< N: the layer is N x N
  index_t radix = 0;   ///< R >= 2: entries per row and per column
  index_t stride = 0;  ///< s >= 1, with R * s <= N
  /// store[c] is the layer's output column that reads inputs
  /// (c - n*s) mod N; a permutation of [0, N).
  std::vector<index_t> store;
};

/// The mixed-radix layout of `w`, or nullopt.  Accepts a square N x N
/// layer only when every row has R >= 2 entries, there is a stride s
/// with R * s <= N, and the columns are, up to a relabeling, the
/// transition's outputs: each column's rows are (c - n*s) mod N for
/// n < R and one shift c, no two columns sharing a shift.  When
/// R * s = N a column's rows are a whole residue class mod s, which fits
/// R shifts; the columns of one class take shifts rho, rho+s, ... in
/// column order (their outputs are equal sums).  Any other layer -- one
/// whose inputs were relabeled, a Kronecker-widened one, a random one --
/// gets no layout.  Runs in O(nnz + N) over the CSR rows and builds no
/// transpose.
std::optional<RadixLayout> detect_radix_layout(const CsrFloatView& w);

}  // namespace radix
