#include "util/file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace vanet::util {

bool writeFile(const std::string& path, std::string_view bytes,
               LogLevel level) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    VANET_LOG_AT(level, "cannot open " << path << " for writing: "
                                       << std::strerror(errno));
    return false;
  }
  errno = 0;
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  // fclose flushes the stdio buffer: a small artefact meets a full
  // device only here, so its result decides as much as fwrite's.
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) {
    VANET_LOG_AT(level, "failed writing " << path << ": "
                                          << std::strerror(errno));
    return false;
  }
  return true;
}

}  // namespace vanet::util
