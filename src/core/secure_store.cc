#include "core/secure_store.h"

namespace ghostdb::core {

Result<uint32_t> SecureStore::LevelFor(const catalog::Schema& schema,
                                       catalog::TableId owner,
                                       catalog::TableId target,
                                       bool self_level) {
  if (target == owner) {
    if (!self_level) {
      return Status::Internal("id index has no self level");
    }
    return 0u;
  }
  const auto& ancestors = schema.tree(owner).ancestors;
  for (uint32_t i = 0; i < ancestors.size(); ++i) {
    if (ancestors[i] == target) {
      return (self_level ? 1u : 0u) + i;
    }
  }
  return Status::Internal("table '" + schema.table(target).name +
                          "' is not an ancestor of '" +
                          schema.table(owner).name + "'");
}

}  // namespace ghostdb::core
