#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/string_util.h"
#include "util/status.h"

namespace smartcrawl {

void FlagParser::AddString(const std::string& name, std::string* value,
                           const std::string& help) {
  specs_[name] = Spec{Kind::kString, value, help, "\"" + *value + "\""};
}

void FlagParser::AddInt(const std::string& name, int64_t* value,
                        const std::string& help) {
  specs_[name] = Spec{Kind::kInt, value, help, std::to_string(*value)};
}

void FlagParser::AddDouble(const std::string& name, double* value,
                           const std::string& help) {
  specs_[name] = Spec{Kind::kDouble, value, help, std::to_string(*value)};
}

void FlagParser::AddBool(const std::string& name, bool* value,
                         const std::string& help) {
  specs_[name] = Spec{Kind::kBool, value, help, *value ? "true" : "false"};
}

Status FlagParser::SetValue(const std::string& name, const Spec& spec,
                            const std::string& value) {
  switch (spec.kind) {
    case Kind::kString:
      *static_cast<std::string*>(spec.target) = value;
      return Status::OK();
    case Kind::kInt: {
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("--" + name +
                                       " expects an integer, got: " + value);
      }
      if (errno == ERANGE) {
        return Status::InvalidArgument("--" + name +
                                       " is out of range: " + value);
      }
      *static_cast<int64_t*>(spec.target) = v;
      return Status::OK();
    }
    case Kind::kDouble: {
      char* end = nullptr;
      double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("--" + name +
                                       " expects a number, got: " + value);
      }
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("--" + name +
                                       " expects a finite number, got: " +
                                       value);
      }
      *static_cast<double*>(spec.target) = v;
      return Status::OK();
    }
    case Kind::kBool: {
      std::string v = ToLower(value);
      if (v == "true" || v == "1" || v == "yes") {
        *static_cast<bool*>(spec.target) = true;
      } else if (v == "false" || v == "0" || v == "no") {
        *static_cast<bool*>(spec.target) = false;
      } else {
        return Status::InvalidArgument("--" + name +
                                       " expects true/false, got: " + value);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    if (body == "help") {
      help_requested_ = true;
      continue;
    }
    std::string name = body;
    std::string value;
    bool has_value = false;
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
      has_value = true;
    }
    auto it = specs_.find(name);
    if (it == specs_.end()) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
    if (!has_value) {
      if (it->second.kind == Kind::kBool) {
        // Bare boolean flag sets true.
        *static_cast<bool*>(it->second.target) = true;
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + name + " needs a value");
      }
      value = argv[++i];
    }
    SC_RETURN_NOT_OK(SetValue(name, it->second, value));
  }
  return Status::OK();
}

std::string FlagParser::HelpText() const {
  std::string out = program_ + "\n\nFlags:\n";
  for (const auto& [name, spec] : specs_) {
    out += "  --" + name;
    out += "  (default " + spec.default_repr + ")\n";
    out += "      " + spec.help + "\n";
  }
  out += "  --help\n      Show this message.\n";
  return out;
}

}  // namespace smartcrawl
