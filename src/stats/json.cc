#include "stats/json.hh"

#include <cmath>
#include <fstream>

#include "sim/logging.hh"

namespace rpcvalet::stats {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
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
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += sim::strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    return std::isfinite(v) ? sim::strfmt("%.10g", v) : "null";
}

void
JsonWriter::member(const char *key)
{
    if (!stack_.empty()) {
        Frame &f = stack_.back();
        if (f.members++ > 0)
            out_ += f.inlined ? ", " : ",";
        if (!f.inlined) {
            out_ += '\n';
            out_.append(2 * stack_.size(), ' ');
        }
    }
    if (key != nullptr)
        out_ += "\"" + jsonEscape(key) + "\": ";
}

void
JsonWriter::open(const char *key, char bracket, bool inline_values)
{
    member(key);
    out_ += bracket;
    const bool inlined =
        inline_values || (!stack_.empty() && stack_.back().inlined);
    stack_.push_back(Frame{bracket == '{' ? '}' : ']', inlined, 0});
}

void
JsonWriter::beginObject(const char *key)
{
    open(key, '{', false);
}

void
JsonWriter::beginArray(const char *key, bool inline_values)
{
    open(key, '[', inline_values);
}

void
JsonWriter::end()
{
    RV_ASSERT(!stack_.empty(), "JsonWriter::end() without an open value");
    const Frame f = stack_.back();
    stack_.pop_back();
    if (f.members > 0 && !f.inlined) {
        out_ += '\n';
        out_.append(2 * stack_.size(), ' ');
    }
    out_ += f.close;
    if (stack_.empty())
        out_ += '\n';
}

void
JsonWriter::value(const char *key, const std::string &v)
{
    member(key);
    out_ += "\"" + jsonEscape(v) + "\"";
}

void
JsonWriter::value(const char *key, const char *v)
{
    value(key, std::string(v));
}

bool
JsonWriter::writeFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << out_;
    f.flush();
    return static_cast<bool>(f);
}

} // namespace rpcvalet::stats
