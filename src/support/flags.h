// Minimal command-line flag parsing for bench/example binaries.
//
// Supports "--name=value" and "--name value". Unconsumed (unknown) flags are
// surfaced after parsing: strict callers reject them via
// check_all_consumed() (typos in experiment sweeps fail loudly instead of
// silently running defaults); the bench harness instead prints a warning via
// warn_unconsumed() and points at --help, so a flag that only some bench
// binaries understand doesn't abort a sweep over all of them.
#pragma once

#include <iosfwd>
#include <map>
#include <string>

namespace gnnhls {

class Flags {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input.
  Flags(int argc, const char* const* argv);

  /// Typed getters return `def` when the flag is absent. A present value
  /// must parse whole — an integer, a number, or one of
  /// true/1/yes/false/0/no — otherwise std::invalid_argument names the flag.
  int get_int(const std::string& name, int def) const;
  double get_double(const std::string& name, double def) const;
  std::string get_string(const std::string& name, const std::string& def) const;
  bool get_bool(const std::string& name, bool def) const;
  bool has(const std::string& name) const;

  /// Names that were provided but never read — used to reject typos.
  /// Call after all get_*() calls.
  void check_all_consumed() const;

  /// Softer variant: prints one warning line per unconsumed flag to `os`
  /// (and a pointer to --help) instead of throwing. Returns the number of
  /// unconsumed flags. Call after all get_*() calls.
  int warn_unconsumed(std::ostream& os) const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace gnnhls
