/**
 * @file
 * Pack/unpack between individual request matrices and the RaggedBatch
 * the encoder consumes.
 *
 * The serving layer holds N independently-submitted token matrices and
 * needs them in one RaggedBatch for VitEncoder::forwardRaggedInto;
 * afterwards it needs image i back out as a standalone Matrix for
 * response i. Both directions are plain shape-checked copies with
 * Matrix::resize / copyFrom semantics (storage recycled, so a batcher
 * reusing one RaggedBatch and per-response matrices is allocation-free
 * in steady state). packRequests then forwardRaggedInto then
 * unpackImage(i) is bitwise-identical per request to a direct
 * single-image forward, because the ragged forward is batch-independent
 * (vit_encoder.h) and the copies here are exact.
 */

#ifndef VITALITY_MODEL_REQUEST_BATCH_H
#define VITALITY_MODEL_REQUEST_BATCH_H

#include <cstddef>

#include "tensor/matrix.h"
#include "tensor/ragged_batch.h"

namespace vitality {

/**
 * Pack n mixed-token-count requests into one contiguous RaggedBatch
 * (resized, storage recycled). Inputs must be non-null with equal
 * non-zero columns and rows >= 1 each — token-count diversity is the
 * point; only the embedding width is fixed. Throws
 * std::invalid_argument otherwise. Pointer-array form so a batcher can
 * pack straight from queued request nodes.
 */
void packRequests(RaggedBatch &dst, const Matrix *const *inputs,
                  size_t n);

/**
 * Copy image i's surviving tokens into dst (resized, recycling
 * storage). Throws std::out_of_range on a bad index.
 */
void unpackImage(const RaggedBatch &src, size_t i, Matrix &dst);

} // namespace vitality

#endif // VITALITY_MODEL_REQUEST_BATCH_H
