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

}  // namespace vanet::util
