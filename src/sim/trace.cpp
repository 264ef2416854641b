#include "sim/trace.hpp"

#include <cstdio>
#include <sstream>

#include "common/json.hpp"

namespace narma::sim {

namespace {

/// Minimal JSON string escaping (names are library-generated; quotes and
/// backslashes are the realistic risks).
std::string escape(const char* s) {
  std::string out;
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string Tracer::to_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& fields) {
    if (!first) os << ',';
    first = false;
    os << '{' << fields << '}';
  };

  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    emit("\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(r) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"rank " +
         std::to_string(r) + "\"}");
    for (const auto& e : ranks_[r]) {
      const std::string common =
          "\"pid\":0,\"tid\":" + std::to_string(r) + ",\"cat\":\"" +
          e.category + "\",\"name\":\"" + escape(e.name) + "\",\"ts\":" +
          std::to_string(to_us(e.begin));
      switch (e.kind) {
        case Kind::kSpan:
          emit("\"ph\":\"X\"," + common +
               ",\"dur\":" + std::to_string(to_us(e.end - e.begin)));
          break;
        case Kind::kInstant:
          emit("\"ph\":\"i\",\"s\":\"t\"," + common);
          break;
        case Kind::kFlowStart:
          emit("\"ph\":\"s\",\"id\":" + std::to_string(e.flow_id) + "," +
               common);
          break;
        case Kind::kFlowEnd:
          emit("\"ph\":\"f\",\"bp\":\"e\",\"id\":" +
               std::to_string(e.flow_id) + "," + common);
          break;
        case Kind::kCounter: {
          char v[32];
          std::snprintf(v, sizeof(v), "%.17g", e.value);
          emit("\"ph\":\"C\"," + common + ",\"args\":{\"value\":" + v + "}");
          break;
        }
      }
    }
  }
  os << "]}";
  return os.str();
}

bool Tracer::write_json(const std::string& path) const {
  return json::write_file(path, to_json());
}

}  // namespace narma::sim
