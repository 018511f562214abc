#include "common/json.h"

#include <cctype>
#include <cstdlib>

namespace gpulitmus::json {

const Value *
Value::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    auto it = object_->find(key);
    return it == object_->end() ? nullptr : &it->second;
}

std::string
Value::getString(const std::string &key,
                 const std::string &fallback) const
{
    const Value *v = find(key);
    return v && v->isString() ? v->string() : fallback;
}

int64_t
Value::getInt(const std::string &key, int64_t fallback) const
{
    const Value *v = find(key);
    return v && v->isNumber() ? v->integer() : fallback;
}

bool
Value::getBool(const std::string &key, bool fallback) const
{
    const Value *v = find(key);
    return v && v->isBool() ? v->boolean() : fallback;
}

const Array &
Value::getArray(const std::string &key) const
{
    static const Array empty;
    const Value *v = find(key);
    return v && v->isArray() ? v->array() : empty;
}

namespace {

constexpr int kMaxDepth = 64;

struct Parser
{
    std::string_view text;
    /** Leave out the containers nested in the top-level value. */
    bool headerOnly = false;
    size_t pos = 0;
    std::string error = {};

    bool
    fail(const std::string &message)
    {
        if (error.empty()) {
            error = message + " at byte " + std::to_string(pos);
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("invalid literal");
        pos += word.size();
        return true;
    }

    bool
    parseHex4(uint32_t *out)
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos >= text.size())
                return fail("truncated \\u escape");
            char c = text[pos++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return fail("invalid \\u escape");
        }
        *out = v;
        return true;
    }

    static void
    appendUtf8(std::string &out, uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    /** The character a one-letter escape stands for; 0 when the
     * escape is invalid. */
    static char
    unescaped(char e)
    {
        switch (e) {
          case '"': return '"';
          case '\\': return '\\';
          case '/': return '/';
          case 'b': return '\b';
          case 'f': return '\f';
          case 'n': return '\n';
          case 'r': return '\r';
          case 't': return '\t';
          default: return 0;
        }
    }

    /** A null `out` checks the string without building it. */
    bool
    parseString(std::string *out)
    {
        if (!consume('"'))
            return fail("expected string");
        if (out)
            out->clear();
        while (true) {
            // Copy the run up to the next quote, backslash or control
            // character in one append.
            const size_t run = pos;
            while (pos < text.size()) {
                const auto b = static_cast<unsigned char>(text[pos]);
                if (b == '"' || b == '\\' || b < 0x20)
                    break;
                ++pos;
            }
            if (out)
                out->append(text.data() + run, pos - run);
            if (pos >= text.size())
                return fail("unterminated string");
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\')
                return fail("raw control character in string");
            if (pos >= text.size())
                return fail("truncated escape");
            char e = text[pos++];
            if (e != 'u') {
                char plain = unescaped(e);
                if (!plain)
                    return fail("invalid escape");
                if (out)
                    *out += plain;
                continue;
            }
            uint32_t cp = 0;
            if (!parseHex4(&cp))
                return false;
            // Surrogate pair: a high surrogate must be followed by
            // \uDC00-\uDFFF; anything else keeps the lone code unit
            // (lenient, like most line-protocol readers).
            if (cp >= 0xd800 && cp <= 0xdbff &&
                text.substr(pos, 2) == "\\u") {
                size_t saved = pos;
                pos += 2;
                uint32_t lo = 0;
                if (!parseHex4(&lo))
                    return false;
                if (lo >= 0xdc00 && lo <= 0xdfff) {
                    cp = 0x10000 + ((cp - 0xd800) << 10) +
                         (lo - 0xdc00);
                } else {
                    pos = saved;
                }
            }
            if (out)
                appendUtf8(*out, cp);
        }
    }

    /** A null `out` checks the number without building it. */
    bool
    parseNumber(Value *out)
    {
        size_t start = pos;
        bool isInt = true;
        if (consume('-')) {
        }
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])))
            ++pos;
        if (pos == start || (text[start] == '-' && pos == start + 1))
            return fail("invalid number");
        if (pos < text.size() && text[pos] == '.') {
            isInt = false;
            ++pos;
            while (pos < text.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            isInt = false;
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            while (pos < text.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        // Only an integer token of 20 or more characters (20 digits,
        // or a sign and 19) can leave [INT64_MIN, UINT64_MAX], so a
        // check that builds nothing skips the conversion otherwise.
        if (!out && (!isInt || pos - start < 20))
            return true;
        std::string token(text.substr(start, pos - start));
        if (isInt) {
            errno = 0;
            // strtoull covers the full u64 range (seeds are u64); the
            // sign is applied after, down to INT64_MIN.
            bool neg = token[0] == '-';
            uint64_t mag = std::strtoull(
                token.c_str() + (neg ? 1 : 0), nullptr, 10);
            if (errno == ERANGE ||
                (neg && mag > static_cast<uint64_t>(INT64_MAX) + 1))
                return fail("integer out of range");
            if (out)
                *out = neg ? Value(static_cast<int64_t>(0 - mag))
                           : Value(mag);
        } else {
            *out = Value(std::strtod(token.c_str(), nullptr));
        }
        return true;
    }

    /**
     * Where the member of a container at `depth` goes: into `member`,
     * or nowhere (checked only) when the container is not built, or
     * when the member is a container nested in a header.
     */
    Value *
    slotFor(Value *out, Value *member, int depth)
    {
        if (!out)
            return nullptr;
        if (headerOnly && depth == 0) {
            skipSpace();
            if (pos < text.size() &&
                (text[pos] == '{' || text[pos] == '['))
                return nullptr;
        }
        return member;
    }

    /** A null `out` checks the value without building it. */
    bool
    parseValue(Value *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{') {
            ++pos;
            Object obj;
            skipSpace();
            if (consume('}')) {
                if (out)
                    *out = Value(std::move(obj));
                return true;
            }
            while (true) {
                skipSpace();
                std::string key;
                if (!parseString(out ? &key : nullptr))
                    return false;
                skipSpace();
                if (!consume(':'))
                    return fail("expected ':'");
                Value v;
                Value *slot = slotFor(out, &v, depth);
                if (!parseValue(slot, depth + 1))
                    return false;
                if (slot)
                    obj[key] = std::move(v);
                skipSpace();
                if (consume(','))
                    continue;
                if (consume('}'))
                    break;
                return fail("expected ',' or '}'");
            }
            if (out)
                *out = Value(std::move(obj));
            return true;
        }
        if (c == '[') {
            ++pos;
            Array arr;
            skipSpace();
            if (consume(']')) {
                if (out)
                    *out = Value(std::move(arr));
                return true;
            }
            while (true) {
                Value v;
                Value *slot = slotFor(out, &v, depth);
                if (!parseValue(slot, depth + 1))
                    return false;
                if (slot)
                    arr.push_back(std::move(v));
                skipSpace();
                if (consume(','))
                    continue;
                if (consume(']'))
                    break;
                return fail("expected ',' or ']'");
            }
            if (out)
                *out = Value(std::move(arr));
            return true;
        }
        if (c == '"') {
            std::string s;
            if (!parseString(out ? &s : nullptr))
                return false;
            if (out)
                *out = Value(std::move(s));
            return true;
        }
        if (c == 't') {
            if (!literal("true"))
                return false;
            if (out)
                *out = Value(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return false;
            if (out)
                *out = Value(false);
            return true;
        }
        if (c == 'n') {
            if (!literal("null"))
                return false;
            if (out)
                *out = Value();
            return true;
        }
        return parseNumber(out);
    }
};

/** Parse `text` as one document; trailing non-whitespace is an
 * error. */
std::optional<Value>
parseDocument(std::string_view text, bool headerOnly,
              std::string *error)
{
    Parser p{text, headerOnly};
    Value v;
    if (!p.parseValue(&v, 0)) {
        if (error)
            *error = p.error;
        return std::nullopt;
    }
    p.skipSpace();
    if (p.pos != p.text.size()) {
        p.fail("trailing characters after document");
        if (error)
            *error = p.error;
        return std::nullopt;
    }
    return v;
}

} // namespace

std::optional<Value>
parse(std::string_view text, std::string *error)
{
    return parseDocument(text, false, error);
}

std::optional<Value>
parseHeader(std::string_view text, std::string *error)
{
    return parseDocument(text, true, error);
}

} // namespace gpulitmus::json
