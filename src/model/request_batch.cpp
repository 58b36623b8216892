#include "model/request_batch.h"

#include <stdexcept>

#include "base/logging.h"

namespace vitality {

void
packRequests(RaggedBatch &dst, const Matrix *const *inputs, size_t n)
{
    // RaggedBatch::packFrom carries the full contract (non-null, equal
    // columns, rows >= 1).
    dst.packFrom(inputs, n);
}

void
unpackImage(const RaggedBatch &src, size_t i, Matrix &dst)
{
    src.unpackImage(i, dst);
}

} // namespace vitality
