#include "support/vfs.h"

#include <algorithm>
#include <stdexcept>

#include "support/hash.h"

namespace advm::support {

namespace {

/// True if `path` is already what normalize_path would return: a leading
/// '/', no empty, "." or ".." component and no trailing '/' (bar "/").
bool is_normal(std::string_view path) {
  if (path.empty() || path.front() != '/') return false;
  if (path.size() == 1) return true;
  std::size_t start = 1;
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    const std::string_view part = path.substr(start, i - start);
    if (part.empty() || part == "." || part == "..") return false;
    start = i + 1;
  }
  return true;
}

}  // namespace

std::string normalize_path(std::string_view path) {
  if (is_normal(path)) return std::string(path);
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      std::string_view part = path.substr(start, i - start);
      start = i + 1;
      if (part.empty() || part == ".") continue;
      if (part == "..") {
        if (!parts.empty()) parts.pop_back();
        continue;
      }
      parts.push_back(part);
    }
  }
  std::string out = "/";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += '/';
    out.append(parts[i]);
  }
  return out;
}

std::string parent_path(std::string_view path) {
  std::string norm = normalize_path(path);
  std::size_t slash = norm.find_last_of('/');
  if (slash == 0 || slash == std::string::npos) return "/";
  return norm.substr(0, slash);
}

std::string base_name(std::string_view path) {
  std::string norm = normalize_path(path);
  std::size_t slash = norm.find_last_of('/');
  return norm.substr(slash + 1);
}

std::string join_path(std::string_view a, std::string_view b) {
  std::string combined(a);
  combined += '/';
  combined.append(b);
  if (is_normal(combined)) return combined;
  return normalize_path(combined);
}

namespace {
/// Prefix for "strictly inside directory" queries.
std::string dir_prefix(std::string_view dir) {
  std::string norm = normalize_path(dir);
  if (norm != "/") norm += '/';
  return norm;
}
}  // namespace

VirtualFileSystem::File& VirtualFileSystem::File::operator=(
    const File& other) {
  content_ = other.content_;
  const bool hashed = other.hashed_.load();
  digest_.store(other.digest_.load());
  hashed_.store(hashed);
  return *this;
}

void VirtualFileSystem::File::assign(std::string content) {
  content_ = std::move(content);
  hashed_.store(false);
}

std::uint64_t VirtualFileSystem::File::digest() const {
  if (hashed_.load()) return digest_.load();
  // digest_ is stored before hashed_ is raised, so a reader that sees the
  // flag sees the digest.
  const std::uint64_t digest = hash_bytes(content_);
  digest_.store(digest);
  hashed_.store(true);
  return digest;
}

VirtualFileSystem::FileMap::const_iterator VirtualFileSystem::locate(
    std::string_view path) const {
  if (is_normal(path)) return files_.find(path);
  return files_.find(normalize_path(path));
}

void VirtualFileSystem::put(std::string path, const File& file) {
  files_.insert_or_assign(std::move(path), file);
}

void VirtualFileSystem::write(std::string_view path, std::string content) {
  // try_emplace leaves `content` alone when the file already exists.
  auto [it, inserted] =
      files_.try_emplace(normalize_path(path), std::move(content));
  if (!inserted) it->second.assign(std::move(content));
}

std::optional<std::string> VirtualFileSystem::read(
    std::string_view path) const {
  if (const std::string* content = find(path)) return *content;
  return std::nullopt;
}

const std::string* VirtualFileSystem::find(std::string_view path) const {
  auto it = locate(path);
  return it == files_.end() ? nullptr : &it->second.content();
}

const std::string& VirtualFileSystem::read_required(
    std::string_view path) const {
  auto it = locate(path);
  if (it == files_.end()) {
    throw std::out_of_range("vfs: no such file: " + normalize_path(path));
  }
  return it->second.content();
}

bool VirtualFileSystem::exists(std::string_view path) const {
  return locate(path) != files_.end();
}

std::optional<std::uint64_t> VirtualFileSystem::digest(
    std::string_view path) const {
  auto it = locate(path);
  if (it == files_.end()) return std::nullopt;
  return it->second.digest();
}

bool VirtualFileSystem::dir_exists(std::string_view dir) const {
  std::string prefix = dir_prefix(dir);
  auto it = files_.lower_bound(prefix);
  return it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
}

bool VirtualFileSystem::remove(std::string_view path) {
  auto it = locate(path);
  if (it == files_.end()) return false;
  files_.erase(it);
  return true;
}

std::size_t VirtualFileSystem::remove_tree(std::string_view dir) {
  std::string prefix = dir_prefix(dir);
  std::size_t removed = 0;
  auto it = files_.lower_bound(prefix);
  while (it != files_.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0) {
    it = files_.erase(it);
    ++removed;
  }
  return removed;
}

std::vector<std::string> VirtualFileSystem::list_all() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, _] : files_) out.push_back(path);
  return out;
}

std::vector<std::string> VirtualFileSystem::list_tree(
    std::string_view dir) const {
  std::string prefix = dir_prefix(dir);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    out.push_back(it->first);
  }
  return out;
}

std::vector<std::string> VirtualFileSystem::list_dir(
    std::string_view dir) const {
  std::string prefix = dir_prefix(dir);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    std::string_view rest =
        std::string_view(it->first).substr(prefix.size());
    std::size_t slash = rest.find('/');
    std::string entry = (slash == std::string_view::npos)
                            ? std::string(rest)
                            : std::string(rest.substr(0, slash + 1));
    if (out.empty() || out.back() != entry) out.push_back(entry);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void VirtualFileSystem::copy_tree(std::string_view from_dir,
                                  std::string_view to_dir) {
  std::string from_prefix = dir_prefix(from_dir);
  std::string to_prefix = dir_prefix(to_dir);
  // Collect first: writing while iterating the same map would invalidate.
  std::vector<std::pair<std::string, File>> additions;
  for (auto it = files_.lower_bound(from_prefix);
       it != files_.end() &&
       it->first.compare(0, from_prefix.size(), from_prefix) == 0;
       ++it) {
    additions.emplace_back(to_prefix + it->first.substr(from_prefix.size()),
                           it->second);
  }
  for (auto& [path, file] : additions) put(std::move(path), file);
}

void VirtualFileSystem::export_tree(std::string_view dir,
                                    VirtualFileSystem& dest,
                                    std::string_view dest_dir) const {
  std::string prefix = dir_prefix(dir);
  std::string to_prefix = dir_prefix(dest_dir);
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    dest.put(to_prefix + it->first.substr(prefix.size()), it->second);
  }
}

std::size_t VirtualFileSystem::total_bytes() const {
  std::size_t n = 0;
  for (const auto& [_, file] : files_) n += file.content().size();
  return n;
}

}  // namespace advm::support
