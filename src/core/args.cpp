#include "core/args.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>

#include "core/error.hpp"

namespace otis::core {

Args::Args(int argc, const char* const* argv,
           const std::vector<std::string>& spec) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    std::string name = token.substr(2);
    std::string value;
    auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    if (!spec.empty() &&
        std::find(spec.begin(), spec.end(), name) == spec.end()) {
      OTIS_REQUIRE(false, "unknown option --" + name);
    }
    options_[name] = value;
  }
}

bool Args::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) {
    return fallback;
  }
  char* end = nullptr;
  std::int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  OTIS_REQUIRE(end != nullptr && *end == '\0' && !it->second.empty(),
               "option --" + name + " expects an integer");
  return value;
}

double Args::get_double(const std::string& name, double fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) {
    return fallback;
  }
  char* end = nullptr;
  double value = std::strtod(it->second.c_str(), &end);
  OTIS_REQUIRE(end != nullptr && *end == '\0' && !it->second.empty(),
               "option --" + name + " expects a number");
  return value;
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    const std::string program = argc > 0 ? argv[0] : "otisnet";
    std::cerr << program.substr(program.find_last_of('/') + 1) << ": "
              << e.what() << "\n";
    return 1;
  }
}

}  // namespace otis::core
