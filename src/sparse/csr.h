/**
 * @file
 * Compressed sparse execution for the strong (sparse) attention branch.
 *
 * The dense-masked pipeline (similarity GEMM, masked softmax, dense
 * score x V GEMM) touches every (query, key) pair whether the mask kept
 * it or not, so "sparse" saves nothing: the SPARSE baseline and the
 * unified training kernel paid full O(n^2 d) at every density. A
 * CsrMask stores only the kept coordinates in row-pointer + column-index
 * form, and the three kernels below do the whole strong branch over
 * exactly those coordinates:
 *
 *   sparseScoresInto      q . k^T at kept coordinates   O(nnz d)
 *   maskedSoftmaxCsrInto  row softmax over nnz entries  O(nnz)
 *   spmmInto              CSR score x dense V           O(nnz d)
 *
 * which is how Sanger (and the paper's Fig. 14 density accounting) get
 * their speedup: cost scales with the measured mask density instead of
 * the full n^2.
 *
 * The VITALITY_SPARSE environment variable ("csr", the default, or
 * "dense") selects which execution path the sparse-branch kernels
 * (SangerSparseAttention, UnifiedAttention) run; the dense-masked path
 * stays compiled as the parity and regression reference, and ctest
 * asserts the two agree at every swept density.
 *
 * Index width is uint32_t: token counts are a few hundred (DeiT runs
 * n = 197), and 32-bit indices halve the memory traffic of the gather
 * loops. Both index vectors recycle their storage across assigns, so a
 * CsrMask held by an AttentionContext allocates nothing in steady
 * state; the nnz-sized value buffers live in the context's Workspace.
 */

#ifndef VITALITY_SPARSE_CSR_H
#define VITALITY_SPARSE_CSR_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sparse/mask.h"
#include "tensor/matrix.h"

namespace vitality {

/** Which execution path the sparse-branch attention kernels run. */
enum class SparseExec
{
    Dense, ///< Dense-masked reference: full n x n scores, masked softmax.
    Csr,   ///< Compressed path: kept coordinates only, O(nnz d).
};

/**
 * The active mode: VITALITY_SPARSE ("dense" or "csr", default csr),
 * resolved once, lazily — same contract as Gemm::quantMode().
 */
SparseExec sparseExecMode();

/** Force the mode (test/bench hook). */
void setSparseExecMode(SparseExec mode);

/** "dense" or "csr", for bench/trajectory reporting. */
const char *sparseExecName(SparseExec mode);

/** Parse a VITALITY_SPARSE value; nullopt on unrecognized text. */
std::optional<SparseExec> parseSparseExec(const std::string &name);

/**
 * A kept-coordinate set in compressed sparse row form. Column indices
 * within a row are stored in ascending order, so iteration order
 * matches the dense-masked loops coordinate for coordinate.
 */
class CsrMask
{
  public:
    /** Empty 0 x 0 structure. */
    CsrMask() = default;

    /** Rebuild from a dense bitmap, recycling the index storage. */
    void assignFromMask(const SparseMask &mask);

    /**
     * Rebuild directly from a threshold over scores (>= keeps), without
     * materializing a dense SparseMask — the CSR twin of
     * SparseMask::assignFromThreshold. With rescue_empty_rows, a row
     * that kept nothing gets its argmax column instead (the Sanger
     * every-query-attends-somewhere guarantee; equivalent to
     * SparseMask::rescueEmptyRows on the same scores).
     */
    void assignFromThreshold(const Matrix &scores, float threshold,
                             bool rescue_empty_rows = false);

    /**
     * Start a row-at-a-time rebuild (recycling the index storage):
     * beginAssign fixes the shape, then exactly rows() calls of
     * appendRowFromThreshold supply the rows in order. Equivalent to
     * assignFromThreshold over the same row data; used by the fused
     * predictor pass (sparse/predictor.h), which never materializes
     * the full score matrix.
     */
    void beginAssign(size_t rows, size_t cols);

    /**
     * Append the next row from a threshold over row[0 .. cols()) (>=
     * keeps). With rescue_empty_row, a row that kept nothing gets its
     * argmax entry instead (first maximum wins, as
     * SparseMask::rescueEmptyRows). Returns the kept count.
     */
    size_t appendRowFromThreshold(const float *row, float threshold,
                                  bool rescue_empty_row = false);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    /** Kept coordinates in total / in row r. */
    size_t nnz() const { return colIdx_.size(); }
    size_t rowNnz(size_t r) const;

    /** nnz / (rows * cols). */
    double density() const;

    /**
     * Row extents: row r's column indices are
     * colIdx()[rowPtr()[r] .. rowPtr()[r + 1]). rowPtr() has rows()+1
     * entries (empty structure: none).
     */
    const uint32_t *rowPtr() const { return rowPtr_.data(); }
    const uint32_t *colIdx() const { return colIdx_.data(); }

    /** Render back to a dense bitmap (tests, pack-and-split parity). */
    SparseMask toMask() const;

    bool operator==(const CsrMask &other) const;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<uint32_t> rowPtr_;
    std::vector<uint32_t> colIdx_;
};

/**
 * vals[idx] = scale * (q row r . k row c) for every kept coordinate
 * (r, c), with idx walking the CSR order. The 1/sqrt(d) similarity
 * scale is fused into the store; each dot accumulates over the head
 * dimension in ascending order, matching the per-element order of the
 * dense similarity GEMM. vals is resized to 1 x nnz (recycling its
 * storage, so a Workspace slot works).
 */
void sparseScoresInto(Matrix &vals, const CsrMask &csr, const Matrix &q,
                      const Matrix &k, float scale);

/**
 * Row-wise softmax over the kept entries only, in place over the CSR
 * value array: pruned coordinates contribute nothing to the max or the
 * denominator, and rows with no kept entry have no values to touch —
 * the CSR twin of maskedSoftmaxRowsInto, which it matches bitwise at
 * the kept coordinates (same max / exp / normalize order).
 */
void maskedSoftmaxCsrInto(Matrix &vals, const CsrMask &csr);

/**
 * dst = (CSR matrix) * v, or dst += with accumulate — the strong
 * branch's score x V product over kept coordinates only. dst is
 * resized to rows x v.cols() (with accumulate it must already have
 * that shape; contents are read, not discarded). Each output row
 * accumulates its kept terms in ascending column order. dst must not
 * alias vals or v.
 */
void spmmInto(Matrix &dst, const CsrMask &csr, const Matrix &vals,
              const Matrix &v, bool accumulate = false);

} // namespace vitality

#endif // VITALITY_SPARSE_CSR_H
