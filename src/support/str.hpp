#ifndef KOJAK_SUPPORT_STR_HPP
#define KOJAK_SUPPORT_STR_HPP

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace kojak::support {

[[nodiscard]] std::string_view trim(std::string_view text);
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);
/// Splits on whitespace runs, skipping empty fields.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view text);
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);
[[nodiscard]] std::string to_lower(std::string_view text);
[[nodiscard]] std::string to_upper(std::string_view text);
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix);

/// Doubles embedded quotes and wraps in single quotes (SQL string literal).
[[nodiscard]] std::string sql_quote(std::string_view text);

/// Formats a double with up to `precision` significant digits, trimming
/// trailing zeros, so values round-trip through report files and SQL text.
[[nodiscard]] std::string format_double(double value, int precision = 17);

/// Streams all arguments into one string (std::format is unavailable in
/// libstdc++ 12, so this is the project-wide formatting helper).
template <typename... Args>
[[nodiscard]] std::string cat(const Args&... args) {
  std::ostringstream out;
  ((out << args), ...);  // comma fold: an empty pack is a no-op
  return out.str();
}

}  // namespace kojak::support

#endif  // KOJAK_SUPPORT_STR_HPP
