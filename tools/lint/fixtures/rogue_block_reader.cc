// sj-lint fixture: MUST fail rule column-format when linted as a file
// under src/ other than src/encoding/ and src/storage/column.{h,cc} (see
// sj_lint_test.py). A cursor that decodes blocks itself is a second
// storage stack: the block format's readahead, sticky errors and the
// random-access work planned for it would have to be written twice.

#include "encoding/block_codec.h"
#include "storage/buffer_pool.h"

namespace sj::storage {

uint32_t RogueReadFirst(BufferPool* pool, PageId page, size_t bytes) {
  uint32_t block[encoding::kBlockValues];
  const uint8_t* data = pool->Pin(page).value();
  // violation: decodes a block outside the column format
  Status s = encoding::DecodeBlock(data, bytes, 1, block);
  (void)pool->Unpin(page);
  return s.ok() ? block[0] : 0;
}

}  // namespace sj::storage
