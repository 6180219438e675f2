#include "vf/util/cli.hpp"

#include <cstdlib>

namespace vf::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      options_.emplace(std::string(arg.substr(0, eq)),
                       std::string(arg.substr(eq + 1)));
      continue;
    }
    // `--name value` if the next token is not itself an option; otherwise a
    // bare flag.
    if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      options_.emplace(std::string(arg), argv[i + 1]);
      ++i;
    } else {
      options_.emplace(std::string(arg), "");
    }
  }
}

bool Cli::has(std::string_view name) const {
  return options_.find(std::string(name)) != options_.end();
}

std::string Cli::get(std::string_view name, std::string fallback) const {
  auto it = options_.find(std::string(name));
  return it == options_.end() ? fallback : it->second;
}

int Cli::get_int(std::string_view name, int fallback) const {
  auto it = options_.find(std::string(name));
  if (it == options_.end() || it->second.empty()) return fallback;
  return std::atoi(it->second.c_str());
}

double Cli::get_double(std::string_view name, double fallback) const {
  auto it = options_.find(std::string(name));
  if (it == options_.end() || it->second.empty()) return fallback;
  return std::atof(it->second.c_str());
}

bool Cli::get_bool(std::string_view name, bool fallback) const {
  auto it = options_.find(std::string(name));
  if (it == options_.end()) return fallback;
  if (it->second.empty()) return true;  // bare flag
  return it->second == "1" || it->second == "true" || it->second == "yes" ||
         it->second == "on";
}

}  // namespace vf::util
