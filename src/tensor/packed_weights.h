/**
 * @file
 * PackedMatrix: a weight operand prepacked into the exact panel
 * layouts the GEMM microkernels consume, hoisting the op(B) pack loop
 * out of the per-call path.
 *
 * Every Gemm::multiply today re-packs op(B) into kc x 16 panels (fp32)
 * or k-quad panels (int8) on each call, even though model weights are
 * static across calls. PackedMatrix runs the same pack once, up front:
 *
 *   - packFp32() lays out full-k column panels, panel jp at offset
 *     jp * k * 16, byte-identical to what the AVX2 backend's per-call
 *     packBPanel would produce for each kc chunk (the chunk [k0, k1)
 *     of panel jp sits at jp * k * 16 + k0 * 16 — chunks are
 *     contiguous in k, see gemm_pack.h). The AVX2 backend therefore
 *     consumes prepacked panels through the identical microkernel
 *     program and the result is bitwise-identical to the eager call.
 *   - packInt8() lays out k-quad panels (panel jp at offset
 *     jp * quads * 64) plus the per-column weight sums (wsum) the
 *     dequant zero-point correction needs, computed at pack time with
 *     the dispatcher's exact integer loops.
 *
 * The source matrix is BORROWED, not copied: the scalar backend (and
 * any validation) reads the original operand directly — the unpack-
 * free reference path that keeps prepacked-vs-per-call parity bitwise
 * on every backend — so the source must outlive the PackedMatrix and must
 * not be mutated after packing (same lifetime contract as
 * Gemm::Epilogue::bias). Repacking after a weight update is the
 * owner's job (EncoderPlan recompiles).
 *
 * The transpose mode of op(B) is baked at pack time (Trans::None or
 * Trans::B); the prepacked multiply() overloads then only accept a
 * transpose of the A operand. Thread-safety: packFp32/packInt8 are
 * setup-time mutations; once packed, all accessors are const and a
 * PackedMatrix may be read by any number of concurrent multiplies.
 */

#ifndef VITALITY_TENSOR_PACKED_WEIGHTS_H
#define VITALITY_TENSOR_PACKED_WEIGHTS_H

#include <cstdint>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/matrix.h"

namespace vitality {

class QuantizedMatrix;

class PackedMatrix
{
  public:
    PackedMatrix() = default;

    /**
     * Pack op(b) into full-k fp32 column panels (trans None or B;
     * Trans::A throws — op(B) has no A side). b is borrowed: it must
     * outlive this object and stay unmodified. Calling again repacks
     * (a fresh source may have the same op-shape or a new one, but
     * must agree with any int8 pack already held).
     */
    void packFp32(const Matrix &b, Gemm::Trans trans = Gemm::Trans::None);

    /**
     * Pack op(b) into int8 k-quad panels plus per-column weight sums.
     * b must be WeightS8-kind (the only operand the quantized multiply
     * accepts on the RHS) and is borrowed like the fp32 source. The
     * op-shape and transpose must agree with any fp32 pack already
     * held (the two are views of the same logical weight).
     */
    void packInt8(const QuantizedMatrix &b,
                  Gemm::Trans trans = Gemm::Trans::None);

    bool hasFp32() const { return fp32Src_ != nullptr; }
    bool hasInt8() const { return int8Src_ != nullptr; }

    /** Rows of op(B) (the GEMM inner dimension). */
    size_t kDim() const { return k_; }
    /** Columns of op(B) (the GEMM output width). */
    size_t nDim() const { return n_; }
    /** The baked transpose mode (Trans::None or Trans::B). */
    Gemm::Trans trans() const { return trans_; }

    /** The borrowed fp32 source, or nullptr. */
    const Matrix *sourceFp32() const { return fp32Src_; }
    /** The borrowed int8 source, or nullptr. */
    const QuantizedMatrix *sourceInt8() const { return int8Src_; }

    /** Full-k fp32 panels, panel jp at jp * kDim() * 16. */
    const float *fp32Panels() const { return fp32Base_; }
    /** Int8 k-quad panels, panel jp at jp * quads * 64. */
    const int8_t *int8Panels() const { return int8Base_; }
    /** Per-column sums of op(B), nDim() entries (int8 pack only). */
    const int32_t *wsum() const { return wsum_.data(); }

    /** Bytes held by the packed panels (fp32 + int8 + wsum). */
    size_t packedBytes() const;

  private:
    void adoptShape(size_t k, size_t n, Gemm::Trans trans);

    size_t k_ = 0;
    size_t n_ = 0;
    Gemm::Trans trans_ = Gemm::Trans::None;
    const Matrix *fp32Src_ = nullptr;
    const QuantizedMatrix *int8Src_ = nullptr;
    // Panel storage is over-allocated and read through a 64-byte-
    // aligned base pointer: a panel row is exactly one cache line
    // (kNr x 4 bytes fp32, kNr8 x 4 quad bytes int8), and the per-call
    // scratch the microkernels otherwise read comes from
    // Workspace::acquireAligned — a merely vector-aligned base would
    // split every panel row across two lines and measurably slow the
    // prepacked path below the eager one it replaces.
    std::vector<float> fp32Panels_;
    std::vector<int8_t> int8Panels_;
    std::vector<int32_t> wsum_;
    float *fp32Base_ = nullptr;
    int8_t *int8Base_ = nullptr;
};

} // namespace vitality

#endif // VITALITY_TENSOR_PACKED_WEIGHTS_H
