#include "util/file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>

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

std::string prepareOutputDir(const std::string& dir) {
  std::string trimmed = dir;
  while (trimmed.size() > 1 && trimmed.back() == '/') trimmed.pop_back();
  std::error_code error;
  std::filesystem::create_directories(trimmed, error);
  if (!error && !std::filesystem::is_directory(trimmed, error)) {
    error = std::make_error_code(std::errc::not_a_directory);
  }
  if (error) {
    throw std::runtime_error("cannot create output directory " + dir + ": " +
                             error.message());
  }
  return trimmed;
}

}  // namespace vanet::util
