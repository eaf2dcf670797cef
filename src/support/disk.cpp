#include "support/disk.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace advm::support {

namespace fs = std::filesystem;

std::size_t export_to_disk(const VirtualFileSystem& vfs,
                           std::string_view vfs_dir,
                           const std::string& disk_dir) {
  std::string prefix = normalize_path(vfs_dir);
  if (prefix != "/") prefix += '/';

  std::size_t written = 0;
  for (const std::string& path : vfs.list_tree(vfs_dir)) {
    const std::string rel = path.substr(prefix.size());
    const fs::path target = fs::path(disk_dir) / rel;
    fs::create_directories(target.parent_path());
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot write " + target.string());
    }
    const std::string& content = vfs.read_required(path);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    if (!out) {
      throw std::runtime_error("short write to " + target.string());
    }
    ++written;
  }
  return written;
}

DiskTree read_disk_tree(const std::string& disk_dir) {
  const fs::path root(disk_dir);
  if (!fs::is_directory(root)) {
    throw std::runtime_error("no such directory: " + disk_dir);
  }
  DiskTree tree;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    // One sized read per file: open at the end to learn the size.
    std::ifstream in(entry.path(), std::ios::binary | std::ios::ate);
    const std::streamoff size = in ? std::streamoff(in.tellg()) : -1;
    if (size < 0) {
      throw std::runtime_error("cannot read " + entry.path().string());
    }
    std::string content(static_cast<std::size_t>(size), '\0');
    in.seekg(0);
    in.read(content.data(), static_cast<std::streamsize>(content.size()));
    content.resize(static_cast<std::size_t>(in.gcount()));
    tree.emplace_back(entry.path().lexically_relative(root).generic_string(),
                      std::move(content));
  }
  return tree;
}

std::size_t import_from_disk(VirtualFileSystem& vfs,
                             const std::string& disk_dir,
                             std::string_view vfs_dir) {
  DiskTree tree = read_disk_tree(disk_dir);
  for (auto& [rel, content] : tree) {
    vfs.write(join_path(vfs_dir, rel), std::move(content));
  }
  return tree.size();
}

}  // namespace advm::support
