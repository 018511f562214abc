/**
 * @file
 * A minimal recursive-descent JSON reader for the serve protocol.
 *
 * The daemon's wire format is line-delimited JSON (docs/SERVE.md);
 * everything the tree needs is to *read* small request objects —
 * writing stays with strutil's jsonEscape/writeJsonArray emitters.
 * This is deliberately a reader for machine-built protocol lines, not
 * a general document store: numbers are parsed as integers when they
 * have no fraction/exponent (job counts, seeds, budgets; INT64_MIN up
 * to UINT64_MAX, anything beyond is an error) and as double otherwise,
 * object keys keep last-wins semantics, and depth is capped so a
 * hostile request cannot recurse the stack away.
 *
 * Two entry points share one grammar. `parse` builds the whole tree.
 * `parseHeader` checks the whole line the same way but builds only
 * its top-level scalars: a client that dispatches on an event's
 * `event`/`id`/`exit` fields does not pay for a `result` line's
 * nested `cell` object, which it reads from the raw line if at all.
 */

#ifndef GPULITMUS_COMMON_JSON_H
#define GPULITMUS_COMMON_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gpulitmus::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/** One parsed JSON value (tagged union over the seven JSON kinds,
 * with integers split out from doubles for lossless u64/i64 round
 * trips of seeds and budgets). */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,
        Double,
        String,
        ArrayKind,
        ObjectKind,
    };

    Value() = default;
    explicit Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    explicit Value(int64_t i) : kind_(Kind::Int), int_(i) {}
    /** An integer up to UINT64_MAX; integer() wraps one above
     * INT64_MAX, unsignedInteger() reads it back. */
    explicit Value(uint64_t u)
        : kind_(Kind::Int), int_(static_cast<int64_t>(u)),
          aboveInt64_(u > static_cast<uint64_t>(INT64_MAX))
    {
    }
    explicit Value(double d) : kind_(Kind::Double), double_(d) {}
    explicit Value(std::string s)
        : kind_(Kind::String), string_(std::move(s))
    {
    }
    explicit Value(Array a)
        : kind_(Kind::ArrayKind),
          array_(std::make_shared<Array>(std::move(a)))
    {
    }
    explicit Value(Object o)
        : kind_(Kind::ObjectKind),
          object_(std::make_shared<Object>(std::move(o)))
    {
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isInt() const { return kind_ == Kind::Int; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Double;
    }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::ArrayKind; }
    bool isObject() const { return kind_ == Kind::ObjectKind; }

    bool boolean() const { return bool_; }
    int64_t integer() const
    {
        return kind_ == Kind::Double ? static_cast<int64_t>(double_)
                                     : int_;
    }
    /** The integer as a u64; nullopt when it is negative or not an
     * integer. */
    std::optional<uint64_t> unsignedInteger() const
    {
        if (kind_ != Kind::Int || (int_ < 0 && !aboveInt64_))
            return std::nullopt;
        return static_cast<uint64_t>(int_);
    }
    double number() const
    {
        return kind_ == Kind::Int ? static_cast<double>(int_)
                                  : double_;
    }
    const std::string &string() const { return string_; }
    const Array &array() const { return *array_; }
    const Object &object() const { return *object_; }

    // ---- object field accessors (null/default when absent or of the
    // wrong kind — protocol fields are all optional-with-default) ----

    /** Member lookup; null when not an object or the key is absent. */
    const Value *find(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    int64_t getInt(const std::string &key, int64_t fallback) const;
    bool getBool(const std::string &key, bool fallback) const;
    /** The member as an array; empty when absent or not an array. */
    const Array &getArray(const std::string &key) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    int64_t int_ = 0;
    bool aboveInt64_ = false; ///< int_ holds a u64 above INT64_MAX
    double double_ = 0.0;
    std::string string_;
    /** shared_ptr keeps Value copyable/cheap and breaks the
     * value-contains-vector-of-itself sizing knot. */
    std::shared_ptr<Array> array_;
    std::shared_ptr<Object> object_;
};

/**
 * Parse one JSON document. Trailing non-whitespace (a second value on
 * the line) is an error, as is nesting deeper than 64 levels. Returns
 * nullopt and sets `error` (with a byte offset) on malformed input.
 */
std::optional<Value> parse(std::string_view text,
                           std::string *error = nullptr);

/**
 * Parse one JSON document's header: the top-level value with every
 * object or array nested in it left out, so an object keeps only its
 * string, number, bool and null members. The nested values are still
 * checked: `parseHeader` accepts exactly the documents `parse`
 * accepts, and fails with the same `error`.
 */
std::optional<Value> parseHeader(std::string_view text,
                                 std::string *error = nullptr);

} // namespace gpulitmus::json

#endif // GPULITMUS_COMMON_JSON_H
