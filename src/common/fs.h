/**
 * @file
 * Small filesystem helpers shared by the on-disk stores and the bench
 * driver, so directory handling (and its failure behaviour) is decided
 * in one place instead of one static copy per store.
 */

#ifndef NOREBA_COMMON_FS_H
#define NOREBA_COMMON_FS_H

#include <string>

namespace noreba {

/**
 * mkdir -p: create every component of @p dir, ignoring components that
 * already exist. Returns false when the path cannot be created or is
 * not a directory afterwards.
 */
bool ensureDir(const std::string &dir);

} // namespace noreba

#endif // NOREBA_COMMON_FS_H
