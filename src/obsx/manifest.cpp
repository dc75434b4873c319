#include "obsx/manifest.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "obsx/json.hpp"

namespace citymesh::obsx {

std::string hex64(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[v & 0xf];
    v >>= 4;
  }
  return out;
}

void RunManifest::set_param(std::string_view key, double value) {
  params[std::string{key}] = json_number(value);
}

void RunManifest::set_param(std::string_view key, std::uint64_t value) {
  params[std::string{key}] = json_number(value);
}

void RunManifest::set_param(std::string_view key, std::string_view value) {
  params[std::string{key}] = '"' + json_escape(value) + '"';
}

namespace {

// params values are pre-rendered JSON tokens; everything else is escaped here.
void write_string_map(std::ostream& os, const char* key,
                      const std::map<std::string, std::string>& m, bool raw_values) {
  os << "  \"" << key << "\": {";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(k) << "\": ";
    if (raw_values) {
      os << v;
    } else {
      os << '"' << json_escape(v) << '"';
    }
    first = false;
  }
  if (!first) os << "\n  ";
  os << '}';
}

}  // namespace

void RunManifest::write_json(std::ostream& os) const {
  os << "{\n";
  os << "  \"schema\": \"" << kManifestSchema << "\",\n";
  os << "  \"name\": \"" << json_escape(name) << "\",\n";
  os << "  \"city\": \"" << json_escape(city) << "\",\n";
  write_string_map(os, "params", params, /*raw_values=*/true);
  os << ",\n";
  os << "  \"seeds\": {";
  bool first = true;
  for (const auto& [k, v] : seeds) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(k)
       << "\": " << json_number(v);
    first = false;
  }
  if (!first) os << "\n  ";
  os << "},\n";
  os << "  \"wall_clock_s\": " << json_number(wall_clock_s) << ",\n";
  os << "  \"digest\": \"" << hex64(digest) << "\",\n";
  os << "  \"metrics\": ";
  metrics.write_json(os, 2);
  if (!notes.empty()) {
    os << ",\n";
    write_string_map(os, "notes", notes, /*raw_values=*/false);
  }
  if (!perf.empty()) {
    os << ",\n  \"perf\": {";
    bool first_perf = true;
    for (const auto& [k, v] : perf) {
      os << (first_perf ? "\n" : ",\n") << "    \"" << json_escape(k)
         << "\": " << json_number(v);
      first_perf = false;
    }
    os << "\n  }";
  }
  os << "\n}\n";
}

std::string RunManifest::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

bool RunManifest::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_json(os);
  return static_cast<bool>(os);
}

}  // namespace citymesh::obsx
