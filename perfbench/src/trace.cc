#include "trace.h"

#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  std::lock_guard<std::mutex> lk(mu_);
  for (const Span& s : spans_) {
    out << '[' << s.id << ',' << s.parent << ',' << json_escape(s.name) << ','
        << s.start_us << ',' << s.end_us << ',' << json_escape(s.key)
        << "]\n";
  }
  return out.good();
}

void JsonOut::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += json_escape(k);
  body_ += ':';
}

void JsonOut::num(const std::string& k, double v) {
  key(k);
  body_ += number(v);
}

void JsonOut::integer(const std::string& k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
}

void JsonOut::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_escape(v);
}

void JsonOut::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
}

void JsonOut::nums(const std::string& k, const std::vector<double>& v) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) body_ += ',';
    body_ += number(v[i]);
  }
  body_ += ']';
}

void JsonOut::strs(const std::string& k, const std::vector<std::string>& v) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) body_ += ',';
    body_ += json_escape(v[i]);
  }
  body_ += ']';
}

void JsonOut::object(const std::string& k, const JsonOut& body) {
  key(k);
  body_ += body.text();
}

bool JsonOut::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << text() << '\n';
  return out.good();
}

}  // namespace perfbench
