// Plain-text table and heatmap rendering for the CLI and the examples.
#pragma once

#include <string>
#include <vector>

namespace pinscope::report {

/// A simple left-aligned text table with a header row and a separator.
class TextTable {
 public:
  /// Sets the column headers (fixes the column count).
  void SetHeader(std::vector<std::string> header);

  /// Adds a data row; short rows are padded with empty cells.
  void AddRow(std::vector<std::string> row);

  /// Renders with two-space column gaps.
  [[nodiscard]] std::string Render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Renders a 0..1 fraction as a coarse ASCII heat cell plus the percentage,
/// e.g. "[####      ]  40%".
[[nodiscard]] std::string HeatCell(double fraction, int width = 10);

/// Section header used by every bench binary.
[[nodiscard]] std::string SectionHeader(const std::string& title);

}  // namespace pinscope::report
