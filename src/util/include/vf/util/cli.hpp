#pragma once
// Tiny command-line argument parser used by the bench harnesses and examples.
//
// Supports `--name value` and `--name=value` forms plus boolean flags
// (`--flag`). Unknown arguments are collected as positionals. This is
// intentionally minimal — the harnesses need a dozen numeric knobs, not a
// full CLI framework.

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace vf::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if `--name` was passed (with or without a value).
  [[nodiscard]] bool has(std::string_view name) const;

  [[nodiscard]] std::string get(std::string_view name,
                                std::string fallback) const;
  [[nodiscard]] int get_int(std::string_view name, int fallback) const;
  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::unordered_map<std::string, std::string> options_;
  std::vector<std::string> positionals_;
};

}  // namespace vf::util
