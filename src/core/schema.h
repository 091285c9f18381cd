// Table schema: named 64-bit data columns; column 0 is the primary
// key by convention (the micro benchmark of Section 6 uses a 10-column
// schema with a single key).

#ifndef LSTORE_CORE_SCHEMA_H_
#define LSTORE_CORE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace lstore {

class Schema {
 public:
  /// Unnamed columns: "c0" (key), "c1", ...
  explicit Schema(uint32_t num_columns) {
    for (uint32_t i = 0; i < num_columns; ++i) {
      names_.push_back("c" + std::to_string(i));
    }
  }
  explicit Schema(std::vector<std::string> names) : names_(std::move(names)) {}

  uint32_t num_columns() const { return static_cast<uint32_t>(names_.size()); }
  const std::string& name(ColumnId c) const { return names_[c]; }
  const std::vector<std::string>& names() const { return names_; }

  /// Column id by name; returns num_columns() if absent.
  ColumnId Find(const std::string& name) const {
    for (ColumnId i = 0; i < num_columns(); ++i) {
      if (names_[i] == name) return i;
    }
    return num_columns();
  }

  /// Mask with every data column set.
  ColumnMask AllColumns() const {
    return num_columns() >= kMaxColumns ? kSchemaMaskBits
                                        : ((1ull << num_columns()) - 1);
  }

 private:
  std::vector<std::string> names_;
};

}  // namespace lstore

#endif  // LSTORE_CORE_SCHEMA_H_
