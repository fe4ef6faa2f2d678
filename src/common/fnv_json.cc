#include "common/fnv_json.hh"

namespace vpir
{

namespace
{

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/** Where the value of the first `"name"` key starts (past its colon
 *  and blanks), or npos when the key is missing. */
size_t
valueStart(std::string_view json, std::string_view name)
{
    // The first quoted occurrence of the name, without building a
    // needle string: the scan runs once per field per parse.
    size_t pos = 0;
    for (;; ++pos) {
        pos = json.find(name, pos);
        if (pos == std::string_view::npos)
            return pos;
        size_t end = pos + name.size();
        if (pos > 0 && json[pos - 1] == '"' && end < json.size() &&
            json[end] == '"') {
            pos = end + 1;
            break;
        }
    }
    while (pos < json.size() && (json[pos] == ':' || isSpace(json[pos])))
        ++pos;
    return pos;
}

int
hexDigit(char h)
{
    if (h >= '0' && h <= '9')
        return h - '0';
    if (h >= 'a' && h <= 'f')
        return h - 'a' + 10;
    if (h >= 'A' && h <= 'F')
        return h - 'A' + 10;
    return -1;
}

} // anonymous namespace

bool
jsonFieldU64(std::string_view json, std::string_view name, uint64_t &out)
{
    size_t pos = valueStart(json, name);
    if (pos >= json.size() || !isDigit(json[pos]))
        return false;
    uint64_t v = 0;
    for (; pos < json.size() && isDigit(json[pos]); ++pos) {
        uint64_t d = static_cast<uint64_t>(json[pos] - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    out = v;
    return true;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (unsigned char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (c < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[c >> 4];
                out += hex[c & 0xf];
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

bool
jsonFieldString(std::string_view json, std::string_view name,
                std::string &out)
{
    size_t pos = valueStart(json, name);
    if (pos >= json.size() || json[pos] != '"')
        return false;
    std::string v;
    for (++pos; pos < json.size() && json[pos] != '"'; ++pos) {
        if (json[pos] != '\\') {
            v += json[pos];
            continue;
        }
        if (++pos >= json.size())
            return false;
        switch (json[pos]) {
          case 'n':  v += '\n'; break;
          case 't':  v += '\t'; break;
          case 'r':  v += '\r'; break;
          case '"':  v += '"'; break;
          case '\\': v += '\\'; break;
          case 'u': {
            if (pos + 4 >= json.size())
                return false;
            unsigned code = 0;
            for (int k = 1; k <= 4; ++k) {
                const int d = hexDigit(json[pos + k]);
                if (d < 0)
                    return false;
                code = code << 4 | static_cast<unsigned>(d);
            }
            pos += 4;
            v += static_cast<char>(code & 0xff);
            break;
          }
          default:
            return false;
        }
    }
    if (pos >= json.size())
        return false;
    out = std::move(v);
    return true;
}

} // namespace vpir
