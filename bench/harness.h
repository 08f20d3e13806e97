// The chores every gated bench shares: wall-clock timing, median and min over repeats, and
// its JSON record.
//
// A record starts as Record(name), whose first member is a `provenance` object: the git
// revision (`git describe --always --dirty` when CMake configured the build, "unknown"
// without git), the build type and its C++ flags, the compiler, hardware_concurrency and the
// process's peak resident set so far (VmHWM from /proc/self/status, 0 where that file is
// absent). bench/CMakeLists.txt defines the MERCURIAL_BENCH_* macros on the bench targets
// only, so a configure that moves the revision rebuilds no src/ object.

#ifndef MERCURIAL_BENCH_HARNESS_H_
#define MERCURIAL_BENCH_HARNESS_H_

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mercurial::bench {

// Wall-clock seconds one call of fn() takes.
template <class Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  std::forward<Fn>(fn)();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// The middle sample (the upper one of the two middle samples for an even count).
inline double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

inline double Min(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

// A JSON object, one member a line (a Rows array one object a line). Strings are escaped,
// integers exact and doubles in shortest round-trip form (a non-finite one is null).
class JsonObject {
 public:
  JsonObject& Str(std::string_view key, std::string_view value) {
    return Put(key, Quote(value));
  }
  JsonObject& Bool(std::string_view key, bool value) {
    return Put(key, value ? "true" : "false");
  }
  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonObject& Int(std::string_view key, T value) {
    char buf[24];
    return Put(key, std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr));
  }
  JsonObject& Num(std::string_view key, double value) {
    char buf[32];
    return Put(key, std::isfinite(value)
                        ? std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr)
                        : "null");
  }
  JsonObject& Obj(std::string_view key, const JsonObject& value) { return Put(key, value.str()); }
  JsonObject& Rows(std::string_view key, const std::vector<JsonObject>& rows) {
    std::string out;
    for (const JsonObject& row : rows) {
      out += (out.empty() ? "[\n  {" : ",\n  {") + row.inline_ + "}";
    }
    return Put(key, out.empty() ? "[]" : out + "\n]");
  }

  std::string str() const { return lines_.empty() ? "{}" : "{" + lines_ + "\n}"; }

 private:
  static std::string Quote(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  JsonObject& Put(std::string_view key, const std::string& value) {
    const std::string member = Quote(key) + ": " + value;
    inline_ += (inline_.empty() ? "" : ", ") + member;
    lines_ += lines_.empty() ? "\n  " : ",\n  ";
    for (const char c : member) {
      lines_ += c == '\n' ? "\n  " : std::string_view(&c, 1);  // indents nested values
    }
    return *this;
  }

  std::string inline_;  // the members on one line
  std::string lines_;   // the members one a line, each after a newline and an indent
};

// Peak resident set of this process in KiB: VmHWM from /proc/self/status, 0 where absent.
inline uint64_t PeakRssKib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// A bench's record: its provenance, then its name; the bench appends the rest.
inline JsonObject Record(std::string_view benchmark) {
  return JsonObject()
      .Obj("provenance", JsonObject()
                             .Str("git_revision", MERCURIAL_BENCH_GIT_REVISION)
                             .Str("build_type", MERCURIAL_BENCH_BUILD_TYPE)
                             .Str("cxx_flags", MERCURIAL_BENCH_CXX_FLAGS)
                             .Str("compiler", MERCURIAL_BENCH_COMPILER)
                             .Int("hardware_concurrency", std::thread::hardware_concurrency())
                             .Int("peak_rss_kib", PeakRssKib()))
      .Str("benchmark", benchmark);
}

// Writes `record` to `path` and prints `wrote` and the path on stdout; an empty path writes
// nothing. Returns false, after saying so on stderr, if the file cannot be opened.
inline bool WriteRecord(const std::string& path, const JsonObject& record,
                        const char* wrote = "# wrote ") {
  if (path.empty()) {
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fputs((record.str() + "\n").c_str(), f);
  std::fclose(f);
  std::printf("%s%s\n", wrote, path.c_str());
  return true;
}

}  // namespace mercurial::bench

#endif  // MERCURIAL_BENCH_HARNESS_H_
