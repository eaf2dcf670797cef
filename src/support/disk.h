// Materialisation between the in-memory VFS and the host filesystem.
//
// ADVM environments are built and transformed in a VirtualFileSystem for
// speed and snapshot semantics; real projects keep them on disk under
// revision control (paper §3). These helpers move whole trees across that
// boundary — the CLI's `init`/`run`/`port` commands are disk-first.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/vfs.h"

namespace advm::support {

/// Writes every file under `vfs_dir` into `disk_dir` (created as needed),
/// preserving relative paths. Returns the number of files written; throws
/// std::runtime_error on I/O failure.
std::size_t export_to_disk(const VirtualFileSystem& vfs,
                           std::string_view vfs_dir,
                           const std::string& disk_dir);

/// Every regular file under a disk directory as (path relative to it,
/// content), in traversal order.
using DiskTree = std::vector<std::pair<std::string, std::string>>;

/// Reads every regular file under `disk_dir`. Relative paths are lexical —
/// a symlink is read at its link path inside `disk_dir`, never at the
/// canonical location of its target. Throws std::runtime_error if the
/// directory does not exist or a file cannot be read.
DiskTree read_disk_tree(const std::string& disk_dir);

/// Reads every regular file under `disk_dir` into the VFS below `vfs_dir`
/// (the read_disk_tree traversal). Returns the number of files read;
/// throws std::runtime_error if the directory does not exist.
std::size_t import_from_disk(VirtualFileSystem& vfs,
                             const std::string& disk_dir,
                             std::string_view vfs_dir);

}  // namespace advm::support
