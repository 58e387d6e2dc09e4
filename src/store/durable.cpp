#include "store/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "support/error.hpp"

namespace radix::store {

void write_durably(const std::string& path, std::span<const std::byte> bytes) {
  const std::string tmp = path + ".tmp";
  int fd = -1;
  const auto fail = [&](const std::string& step) {
    const int err = errno;  // close and unlink may overwrite it
    if (fd >= 0) (void)::close(fd);
    (void)::unlink(tmp.c_str());
    throw IoError("store: " + step + ": " + std::strerror(err));
  };

  fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("create " + tmp);
  for (std::size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail("write " + tmp);
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("fsync " + tmp);
  if (::close(std::exchange(fd, -1)) != 0) fail("close " + tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("rename " + tmp + " -> " + path);
  }

  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  const int dir_fd = ::open(dir.empty() ? "." : dir.c_str(),
                            O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return;
  (void)::fsync(dir_fd);
  (void)::close(dir_fd);
}

}  // namespace radix::store
