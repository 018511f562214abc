/**
 * @file
 * Small string utilities shared by the parsers and printers.
 */

#ifndef GPULITMUS_COMMON_STRUTIL_H
#define GPULITMUS_COMMON_STRUTIL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gpulitmus {

/** Strip leading and trailing whitespace. */
std::string trim(std::string_view s);

/** Split on a separator character; keeps empty fields. */
std::vector<std::string> split(std::string_view s, char sep);

/** Split on arbitrary whitespace runs; drops empty fields. */
std::vector<std::string> splitWhitespace(std::string_view s);

/** True if s starts with the given prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** True if s ends with the given suffix. */
bool endsWith(std::string_view s, std::string_view suffix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view s);

/** Parse a decimal or 0x-prefixed hexadecimal signed integer;
 * nullopt when malformed or outside int64_t's range. */
std::optional<int64_t> parseInt(std::string_view s);

/** FNV-1a 64-bit hash; the string-hashing primitive of job keys and
 * memo tables across the harness, model and eval layers. */
uint64_t fnv1a(std::string_view s);

/** Escape a string for embedding in a JSON document (quotes,
 * backslashes, control characters). */
std::string jsonEscape(std::string_view s);

/** jsonEscape appended to `out`: runs that need no escaping are
 * copied in bulk, and nothing is allocated beyond `out`'s growth. */
void appendJsonEscaped(std::string &out, std::string_view s);

/** Write pre-rendered JSON values to `path` as one array document,
 * one value per line — the shared emitter behind every `--json` file.
 * False when the path is unwritable. */
bool writeJsonArrayFile(const std::string &path,
                        const std::vector<std::string> &entries);

/** Join the items of a container with a separator. */
template <typename Container>
std::string
join(const Container &items, std::string_view sep)
{
    std::string out;
    bool first = true;
    for (const auto &item : items) {
        if (!first)
            out += sep;
        out += item;
        first = false;
    }
    return out;
}

} // namespace gpulitmus

#endif // GPULITMUS_COMMON_STRUTIL_H
