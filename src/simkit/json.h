/**
 * @file
 * Minimal JSON document model: parse, inspect, print.
 *
 * Backs spec serialisation (core::specToJson/specFromJson) and the
 * sweep-spec loader. Deliberately tiny — objects preserve insertion
 * order (so dumps are stable and diffable), numbers remember whether
 * they were written as integers (so 64-bit seeds round-trip exactly),
 * and parse errors carry line/column. Not a general-purpose library.
 */

#ifndef CHAMELEON_SIMKIT_JSON_H
#define CHAMELEON_SIMKIT_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "simkit/name_table.h"

namespace chameleon::sim {

/** One JSON value; objects keep their members in insertion order. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default; // null

    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double value);
    static JsonValue makeInt(std::int64_t value);
    /** Full uint64 range (values above int64 max print unsigned). */
    static JsonValue makeUint64(std::uint64_t value);
    static JsonValue makeString(std::string value);
    static JsonValue makeArray();
    static JsonValue makeObject();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Value accessors; only valid for the matching kind. */
    bool asBool() const { return bool_; }
    double asNumber() const { return number_; }
    /** The integral value; exact when the literal had no '.'/exponent. */
    std::int64_t asInt() const { return int_; }
    /** The integral bits as uint64 (exact for unsigned literals). */
    std::uint64_t asUint64() const
    {
        return static_cast<std::uint64_t>(int_);
    }
    /** Was the number written as an integer literal? */
    bool isIntegral() const { return isNumber() && integral_; }
    /** Integer literal above int64 max (bits live in asUint64()). */
    bool isUnsignedIntegral() const { return isIntegral() && unsigned_; }
    const std::string &asString() const { return string_; }

    /** Array elements (valid for arrays). */
    const std::vector<JsonValue> &items() const { return items_; }
    std::vector<JsonValue> &items() { return items_; }

    /** Object members in insertion order (valid for objects). */
    const std::vector<Member> &members() const { return members_; }

    /** Member lookup; nullptr when absent (or not an object). */
    const JsonValue *find(const std::string &key) const;
    JsonValue *find(const std::string &key);

    /** Append to an array. */
    void push(JsonValue value);
    /** Append a member to an object (no duplicate check). */
    void set(const std::string &key, JsonValue value);
    /** Remove an object member; false when absent. */
    bool erase(const std::string &key);

    /** Human-readable kind name for error messages. */
    static const char *kindName(Kind kind);

    /**
     * Pretty-print with 2-space indentation. Integer-literal numbers
     * print as integers; other doubles with max_digits10 precision so
     * every value round-trips through parse() bit-exactly.
     */
    std::string dump() const;

  private:
    void dumpTo(std::string &out, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::int64_t int_ = 0;
    bool integral_ = false;
    bool unsigned_ = false;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
};

/**
 * Parse a complete JSON document. On failure returns std::nullopt and
 * fills `error` (when non-null) with "line L, column C: problem".
 * Duplicate object keys are rejected. "//" line comments are allowed
 * anywhere whitespace is (so annotated config files parse verbatim);
 * dump() never emits them.
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr);

/** `s` as a double-quoted JSON string literal (escapes applied). */
std::string jsonQuote(const std::string &s);

/**
 * Strict partial reader over one JSON object: getters apply present
 * keys onto caller-owned defaults (absent keys leave the default
 * untouched), type mismatches fail with the full key path, and
 * finish() rejects any key no getter consumed — so typos like
 * "scheduler.polcy" are named instead of silently ignored.
 */
class JsonObjectReader
{
  public:
    /**
     * @param value the object to read (non-objects fail immediately)
     * @param path dotted prefix for error key paths ("" at the root)
     * @param error sink for the first failure message (nullable)
     */
    JsonObjectReader(const JsonValue &value, std::string path,
                     std::string *error);

    bool ok() const { return ok_; }

    /** Getters: absent key = keep default; wrong type = fail. */
    bool getBool(const std::string &key, bool *out);
    bool getDouble(const std::string &key, double *out);
    bool getInt64(const std::string &key, std::int64_t *out);
    bool getInt(const std::string &key, int *out);
    /** Rejects negative values. */
    bool getSize(const std::string &key, std::size_t *out);
    bool getUint64(const std::string &key, std::uint64_t *out);
    bool getString(const std::string &key, std::string *out);

    /** Parse an enum by name; lists the table's names on failure. */
    template <typename Enum>
    bool getEnum(const std::string &key, Enum *out,
                 const NameTable<Enum> &names)
    {
        const JsonValue *v = consume(key);
        if (v == nullptr)
            return ok_;
        if (!v->isString())
            return fail(key, typeMessage("a string", *v));
        if (!names.byName(v->asString(), out))
            return fail(key, "unknown value \"" + v->asString() +
                                 "\"; known: " + names.names());
        return true;
    }

    /** Fetch a raw member (marks it consumed); nullptr when absent. */
    const JsonValue *child(const std::string &key);

    /** Report an error against `path.key`; returns false. */
    bool fail(const std::string &key, const std::string &message);

    /** Reject every key no getter consumed. */
    bool finish();

    /** The dotted path of `key` under this reader. */
    std::string pathOf(const std::string &key) const;

  private:
    static std::string typeMessage(const std::string &want,
                                   const JsonValue &v);

    const JsonValue *consume(const std::string &key);

    const JsonValue &value_;
    std::string path_;
    std::string *error_;
    bool ok_ = true;
    std::vector<std::string> consumed_;
};

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_JSON_H
