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

} // anonymous namespace

bool
jsonFieldU64(std::string_view json, std::string_view name, uint64_t &out)
{
    // The first quoted occurrence of the name, without building a
    // needle string: the scan runs once per field per parse.
    size_t pos = 0;
    for (;; ++pos) {
        pos = json.find(name, pos);
        if (pos == std::string_view::npos)
            return false;
        size_t end = pos + name.size();
        if (pos > 0 && json[pos - 1] == '"' && end < json.size() &&
            json[end] == '"') {
            pos = end + 1;
            break;
        }
    }
    while (pos < json.size() && (json[pos] == ':' || isSpace(json[pos])))
        ++pos;
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

} // namespace vpir
