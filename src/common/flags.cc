#include "src/common/flags.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/logging.h"

namespace mercurial {
namespace {

bool ParseBoolText(const std::string& text, bool& out) {
  if (text == "true" || text == "1" || text == "yes") {
    out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

void FlagSet::DefineString(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  flags_[name] = Flag{Type::kString, default_value, default_value, help};
}

void FlagSet::DefineInt(const std::string& name, int64_t default_value, const std::string& help) {
  const std::string text = std::to_string(default_value);
  flags_[name] = Flag{Type::kInt, text, text, help};
}

void FlagSet::DefineDouble(const std::string& name, double default_value,
                           const std::string& help) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%g", default_value);
  flags_[name] = Flag{Type::kDouble, buffer, buffer, help};
}

void FlagSet::DefineBool(const std::string& name, bool default_value, const std::string& help) {
  const std::string text = default_value ? "true" : "false";
  flags_[name] = Flag{Type::kBool, text, text, help};
}

Status FlagSet::SetValue(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return InvalidArgumentError("unknown flag --" + name);
  }
  Flag& flag = it->second;
  switch (flag.type) {
    case Type::kString:
      break;
    case Type::kInt: {
      char* end = nullptr;
      (void)std::strtoll(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || value.empty()) {
        return InvalidArgumentError("flag --" + name + " expects an integer, got '" + value +
                                    "'");
      }
      break;
    }
    case Type::kDouble: {
      char* end = nullptr;
      (void)std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || value.empty()) {
        return InvalidArgumentError("flag --" + name + " expects a number, got '" + value + "'");
      }
      break;
    }
    case Type::kBool: {
      bool parsed = false;
      if (!ParseBoolText(value, parsed)) {
        return InvalidArgumentError("flag --" + name + " expects true/false, got '" + value +
                                    "'");
      }
      break;
    }
  }
  flag.value = value;
  return Status::Ok();
}

Status FlagSet::Parse(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      const Status status = SetValue(arg.substr(0, eq), arg.substr(eq + 1));
      if (!status.ok()) {
        return status;
      }
      continue;
    }
    // --name value, or bare --name for booleans.
    auto it = flags_.find(arg);
    if (it == flags_.end()) {
      return InvalidArgumentError("unknown flag --" + arg);
    }
    if (it->second.type == Type::kBool) {
      // Only consume the next token when it is unambiguously a boolean literal; otherwise the
      // bare form means true and the token is positional/another flag.
      bool parsed = false;
      if (i + 1 < argc && ParseBoolText(argv[i + 1], parsed)) {
        it->second.value = parsed ? "true" : "false";
        ++i;
      } else {
        it->second.value = "true";
      }
      continue;
    }
    if (i + 1 >= argc) {
      return InvalidArgumentError("flag --" + arg + " is missing its value");
    }
    const Status status = SetValue(arg, argv[++i]);
    if (!status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

const FlagSet::Flag& FlagSet::Require(const std::string& name, Type type) const {
  auto it = flags_.find(name);
  MERCURIAL_CHECK(it != flags_.end()) << "flag --" << name << " was never defined";
  MERCURIAL_CHECK(it->second.type == type) << "flag --" << name << " accessed with wrong type";
  return it->second;
}

std::string FlagSet::GetString(const std::string& name) const {
  return Require(name, Type::kString).value;
}

int64_t FlagSet::GetInt(const std::string& name) const {
  return std::strtoll(Require(name, Type::kInt).value.c_str(), nullptr, 10);
}

double FlagSet::GetDouble(const std::string& name) const {
  return std::strtod(Require(name, Type::kDouble).value.c_str(), nullptr);
}

bool FlagSet::GetBool(const std::string& name) const {
  bool parsed = false;
  MERCURIAL_CHECK(ParseBoolText(Require(name, Type::kBool).value, parsed));
  return parsed;
}

bool FlagSet::ParseOrUsage(int argc, const char* const* argv, int first) {
  const Status status = Parse(argc, argv, first);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\nflags:\n%s", status.ToString().c_str(), Usage().c_str());
  }
  return status.ok();
}

std::string FlagSet::Usage() const {
  std::string usage;
  for (const auto& [name, flag] : flags_) {
    usage += "  --" + name + " (default: " + flag.default_value + ")\n      " + flag.help + "\n";
  }
  return usage;
}

}  // namespace mercurial
