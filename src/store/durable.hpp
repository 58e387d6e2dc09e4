// The store's one crash-safe commit, behind every artifact save
// (store/artifact.hpp) and journal append (store/journal.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <string>

namespace radix::store {

/// Make `bytes` the whole content of `path`: write `path`.tmp, fsync
/// it, rename it over `path`, fsync the directory.  A reader -- a
/// daemon booting after a crash -- sees the old content or the new,
/// never a torn file.  On failure the temp file is removed, `path` is
/// as it was, and the IoError names the step, its file and the errno
/// text.  The directory fsync is best effort (some filesystems refuse
/// it); the rename has landed by then.
void write_durably(const std::string& path, std::span<const std::byte> bytes);

}  // namespace radix::store
