#pragma once

/// \file file.h
/// The one way artefacts reach disk: every CSV, campaign JSON, partial,
/// checkpoint and manifest sidecar is rendered in memory and handed to
/// writeFile(), which reports the I/O errors a plain std::ofstream
/// loses -- in particular the ones that only surface when the last
/// buffer flushes at close (a full disk, EIO, /dev/full).

#include <string>
#include <string_view>

#include "util/log.h"

namespace vanet::util {

/// Writes `bytes` to `path` (created or truncated), then closes the file
/// and checks the close. On any failure logs the path and the OS reason
/// at `level` and returns false; the file may then hold a torn prefix.
bool writeFile(const std::string& path, std::string_view bytes,
               LogLevel level = LogLevel::kError);

/// Makes `dir` (with any missing parents) ready to receive artefacts and
/// returns it without trailing slashes, so `dir + "/" + name` joins
/// cleanly. Throws std::runtime_error naming `dir` when it cannot be
/// created or a non-directory is in the way -- call it before a long run,
/// not after.
std::string prepareOutputDir(const std::string& dir);

}  // namespace vanet::util
