// Minimal command-line flag parsing for the tools/ binaries.
//
// Supports --name=value and --name value forms, plus bare --name for booleans. Unknown flags
// are an error (typos should not silently become defaults). No global state: each binary owns
// a FlagSet.

#ifndef MERCURIAL_SRC_COMMON_FLAGS_H_
#define MERCURIAL_SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace mercurial {

class FlagSet {
 public:
  FlagSet() = default;

  // Declares a flag with its default and help text. Call before Parse.
  void DefineString(const std::string& name, const std::string& default_value,
                    const std::string& help);
  void DefineInt(const std::string& name, int64_t default_value, const std::string& help);
  void DefineDouble(const std::string& name, double default_value, const std::string& help);
  void DefineBool(const std::string& name, bool default_value, const std::string& help);

  // Parses argv (excluding argv[0] and any subcommand). Leftover positional arguments are
  // collected into positional(). Returns INVALID_ARGUMENT for unknown flags or bad values.
  Status Parse(int argc, const char* const* argv, int first = 1);

  // Parse for a binary's main: on an error, prints it and Usage() to stderr and returns false.
  bool ParseOrUsage(int argc, const char* const* argv, int first = 1);

  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Formats "  --name (default) : help" lines.
  std::string Usage() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };

  struct Flag {
    Type type;
    std::string value;  // canonical textual value
    std::string default_value;
    std::string help;
  };

  Status SetValue(const std::string& name, const std::string& value);
  const Flag& Require(const std::string& name, Type type) const;

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_COMMON_FLAGS_H_
