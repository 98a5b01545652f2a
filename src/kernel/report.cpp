#include "kernel/report.hpp"

#include <algorithm>
#include <vector>

namespace craft::detail {

std::string LexicallyNormal(std::string_view path) {
  const bool absolute = !path.empty() && path.front() == '/';
  std::vector<std::string_view> parts;
  for (std::size_t pos = 0; pos <= path.size();) {
    const std::size_t slash = std::min(path.find('/', pos), path.size());
    const std::string_view part = path.substr(pos, slash - pos);
    pos = slash + 1;
    if (part.empty() || part == ".") continue;
    if (part == ".." && !parts.empty() && parts.back() != "..") {
      parts.pop_back();
    } else if (part != ".." || !absolute) {  // "/.." is "/"
      parts.push_back(part);
    }
  }
  std::string out = absolute ? "/" : "";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += '/';
    out += parts[i];
  }
  return out.empty() ? "." : out;
}

std::string SourcePath(std::string_view file) {
  // This file is <checkout>/src/kernel/report.cpp; its own __FILE__ names
  // the checkout root at run time, so no build flag has to.
  static const std::string root = [] {
    constexpr std::string_view kSelf = "src/kernel/report.cpp";
    const std::string self = LexicallyNormal(__FILE__);
    return self.ends_with(kSelf) ? self.substr(0, self.size() - kSelf.size())
                                 : std::string();
  }();
  std::string path = LexicallyNormal(file);
  if (!root.empty() && path.starts_with(root)) path.erase(0, root.size());
  return path;
}

void RaiseError(const char* file, int line, const std::string& msg) {
  std::ostringstream os;
  os << SourcePath(file) << ":" << line << ": " << msg;
  throw SimError(os.str());
}

}  // namespace craft::detail
