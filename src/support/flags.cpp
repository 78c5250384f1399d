#include "support/flags.h"

#include <sstream>
#include <stdexcept>

#include "support/check.h"

namespace gnnhls {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("--" + name + "=" + value + ": expected " +
                              expected);
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    GNNHLS_CHECK(arg.rfind("--", 0) == 0, "flag must start with --: " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare switch
    }
  }
  for (const auto& [k, v] : values_) consumed_[k] = false;
}

int Flags::get_int(const std::string& name, int def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[name] = true;
  const std::string& v = it->second;
  std::size_t used = 0;
  int out = 0;
  try {
    out = std::stoi(v, &used);
  } catch (const std::logic_error&) {
    bad_value(name, v, "an integer");
  }
  if (used != v.size()) bad_value(name, v, "an integer");
  return out;
}

double Flags::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[name] = true;
  const std::string& v = it->second;
  std::size_t used = 0;
  double out = 0.0;
  try {
    out = std::stod(v, &used);
  } catch (const std::logic_error&) {
    bad_value(name, v, "a number");
  }
  if (used != v.size()) bad_value(name, v, "a number");
  return out;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[name] = true;
  return it->second;
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[name] = true;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(name, v, "one of true/1/yes/false/0/no");
}

bool Flags::has(const std::string& name) const {
  const auto it = values_.find(name);
  if (it != values_.end()) consumed_[name] = true;
  return it != values_.end();
}

int Flags::warn_unconsumed(std::ostream& os) const {
  int unconsumed = 0;
  for (const auto& [name, used] : consumed_) {
    if (used) continue;
    os << "warning: unknown flag --" << name
       << " (ignored; --help lists the supported flags)\n";
    ++unconsumed;
  }
  return unconsumed;
}

void Flags::check_all_consumed() const {
  std::ostringstream unknown;
  for (const auto& [name, used] : consumed_) {
    if (!used) unknown << " --" << name;
  }
  const std::string s = unknown.str();
  if (!s.empty()) {
    throw std::invalid_argument("unknown flag(s):" + s);
  }
}

}  // namespace gnnhls
