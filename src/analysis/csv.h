#pragma once

/// \file csv.h
/// CSV export of figure series and Table 1 rows, so the paper's plots can
/// be regenerated with any plotting tool.

#include <string>
#include <vector>

#include "trace/aggregate.h"

namespace vanet::analysis {

/// Writes aligned columns to `path`. All columns share the index column
/// `indexName` starting at 1; shorter columns leave blanks.
/// Returns false (and logs) on I/O failure.
bool writeSeriesCsv(const std::string& path, const std::string& indexName,
                    const std::vector<std::string>& headers,
                    const std::vector<std::vector<double>>& columns);

/// Writes the Table 1 aggregate (one row per car); false (and logs) on
/// I/O failure.
bool writeTable1Csv(const std::string& path, const trace::Table1Data& data);

/// Renders a generic table (header row plus pre-formatted cells) as CSV
/// text. Cells containing commas, quotes or newlines are quoted per RFC
/// 4180. Used by the campaign engine's emitters.
std::string renderCsv(const std::vector<std::string>& headers,
                      const std::vector<std::vector<std::string>>& rows);

}  // namespace vanet::analysis
