#pragma once
/// \file args.hpp
/// Tiny command-line option parser for the example and bench binaries.
///
/// Accepts `--name=value` and `--name value` forms plus boolean flags.
/// Unknown options raise an error so typos surface immediately; run_main
/// turns that error (or any other) into a message and exit status 1.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace otis::core {

/// Parsed command line; all lookups have typed accessors with defaults.
class Args {
 public:
  /// Parses argv. `spec` lists the accepted option names (without `--`);
  /// an empty spec accepts anything (useful for quick tools).
  Args(int argc, const char* const* argv,
       const std::vector<std::string>& spec = {});

  /// True if `--name` appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value or `fallback`.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;

  /// Integer value or `fallback`; throws on non-numeric text.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// Double value or `fallback`; throws on non-numeric text.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// Positional (non option) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Runs `body(argc, argv)` as a program's main and returns its status.
/// An exception escaping it -- an unknown flag, a bad parameter -- is
/// printed as "<program>: <what>" on stderr and yields status 1 instead
/// of aborting.
int run_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace otis::core
