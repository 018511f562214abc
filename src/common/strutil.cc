#include "common/strutil.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

namespace gpulitmus {

std::string
trim(std::string_view s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string>
splitWhitespace(std::string_view s)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        size_t start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        if (i > start)
            out.emplace_back(s.substr(start, i - start));
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (auto &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::optional<int64_t>
parseInt(std::string_view s)
{
    std::string str = trim(s);
    if (str.empty())
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(str.c_str(), &end, 0);
    if (end != str.c_str() + str.size() || errno == ERANGE)
        return std::nullopt;
    return static_cast<int64_t>(v);
}

uint64_t
fnv1a(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendJsonEscaped(out, s);
    return out;
}

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    size_t run = 0; // start of the pending unescaped run
    for (size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: {
              const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                  kHex[c & 0xf]};
              out.append(esc, sizeof esc);
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

bool
writeJsonArrayFile(const std::string &path,
                   const std::vector<std::string> &entries)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "[\n";
    for (size_t i = 0; i < entries.size(); ++i) {
        out << "  " << entries[i];
        if (i + 1 < entries.size())
            out << ",";
        out << "\n";
    }
    out << "]\n";
    return out.good();
}

} // namespace gpulitmus
