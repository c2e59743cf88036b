#include "simkit/json.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

namespace chameleon::sim {

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double value)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.number_ = value;
    // A whole double prints nicer (and round-trips) as an integer.
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < 9.0e15) {
        v.int_ = static_cast<std::int64_t>(value);
        v.integral_ = true;
    }
    return v;
}

JsonValue
JsonValue::makeInt(std::int64_t value)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.number_ = static_cast<double>(value);
    v.int_ = value;
    v.integral_ = true;
    return v;
}

JsonValue
JsonValue::makeUint64(std::uint64_t value)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.number_ = static_cast<double>(value);
    v.int_ = static_cast<std::int64_t>(value);
    v.integral_ = true;
    v.unsigned_ = v.int_ < 0; // above int64 max: print via asUint64()
    return v;
}

JsonValue
JsonValue::makeString(std::string value)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.string_ = std::move(value);
    return v;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[name, value] : members_) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

JsonValue *
JsonValue::find(const std::string &key)
{
    return const_cast<JsonValue *>(std::as_const(*this).find(key));
}

void
JsonValue::push(JsonValue value)
{
    items_.push_back(std::move(value));
}

void
JsonValue::set(const std::string &key, JsonValue value)
{
    members_.emplace_back(key, std::move(value));
}

bool
JsonValue::erase(const std::string &key)
{
    const auto it = std::find_if(
        members_.begin(), members_.end(),
        [&key](const Member &member) { return member.first == key; });
    if (it == members_.end())
        return false;
    members_.erase(it);
    return true;
}

const char *
JsonValue::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Null: return "null";
      case Kind::Bool: return "bool";
      case Kind::Number: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
appendNumber(std::string &out, const JsonValue &v)
{
    if (v.isUnsignedIntegral()) {
        out += std::to_string(v.asUint64());
        return;
    }
    if (v.isIntegral()) {
        out += std::to_string(v.asInt());
        return;
    }
    if (!std::isfinite(v.asNumber())) {
        out += "null"; // JSON has no NaN/Inf
        return;
    }
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v.asNumber();
    out += os.str();
}

void
appendIndent(std::string &out, int depth)
{
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

} // namespace

void
JsonValue::dumpTo(std::string &out, int depth) const
{
    switch (kind_) {
      case Kind::Null: out += "null"; break;
      case Kind::Bool: out += bool_ ? "true" : "false"; break;
      case Kind::Number: appendNumber(out, *this); break;
      case Kind::String: appendEscaped(out, string_); break;
      case Kind::Array: {
        if (items_.empty()) {
            out += "[]";
            break;
        }
        // Arrays of scalars stay on one line; nested structures indent.
        bool scalarOnly = true;
        for (const auto &item : items_) {
            if (item.isArray() || item.isObject())
                scalarOnly = false;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (!scalarOnly) {
                out.push_back('\n');
                appendIndent(out, depth + 1);
            }
            items_[i].dumpTo(out, depth + 1);
            if (i + 1 < items_.size())
                out += scalarOnly ? ", " : ",";
        }
        if (!scalarOnly) {
            out.push_back('\n');
            appendIndent(out, depth);
        }
        out.push_back(']');
        break;
      }
      case Kind::Object: {
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
            appendIndent(out, depth + 1);
            appendEscaped(out, members_[i].first);
            out += ": ";
            members_[i].second.dumpTo(out, depth + 1);
            if (i + 1 < members_.size())
                out.push_back(',');
            out.push_back('\n');
        }
        appendIndent(out, depth);
        out.push_back('}');
        break;
      }
    }
}

std::string
JsonValue::dump() const
{
    std::string out;
    dumpTo(out, 0);
    out.push_back('\n');
    return out;
}

// ---------------------------------------------------------------------
// Parser: recursive descent with line/column error reporting.
// ---------------------------------------------------------------------

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    std::optional<JsonValue> parse(std::string *error)
    {
        JsonValue value;
        if (!parseValue(&value))
            goto fail;
        skipWhitespace();
        if (pos_ != text_.size()) {
            fail("trailing content after the JSON document");
            goto fail;
        }
        return value;
      fail:
        if (error != nullptr)
            *error = error_;
        return std::nullopt;
    }

  private:
    bool fail(const std::string &message)
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        std::ostringstream os;
        os << "line " << line << ", column " << col << ": " << message;
        error_ = os.str();
        return false;
    }

    void skipWhitespace()
    {
        // "//" line comments count as whitespace, so config files
        // (spec and sweep JSONs) can be annotated in place — the
        // schema docs show jsonc examples that then parse verbatim.
        // Dumps never emit comments, so round-trips are unaffected.
        while (pos_ < text_.size()) {
            if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            } else if (text_[pos_] == '/' && pos_ + 1 < text_.size() &&
                       text_[pos_ + 1] == '/') {
                while (pos_ < text_.size() && text_[pos_] != '\n')
                    ++pos_;
            } else {
                break;
            }
        }
    }

    bool atEnd() { return pos_ >= text_.size(); }
    char peek() { return text_[pos_]; }

    bool expect(char c)
    {
        if (atEnd() || text_[pos_] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos_;
        return true;
    }

    bool parseValue(JsonValue *out)
    {
        skipWhitespace();
        if (atEnd())
            return fail("unexpected end of input");
        const char c = peek();
        if (c == '{' || c == '[') {
            // Recursive descent: bound the nesting so hostile input
            // gets the clean error path, not a stack overflow.
            if (depth_ >= kMaxDepth)
                return fail("nesting deeper than 128 levels");
            ++depth_;
            const bool ok =
                c == '{' ? parseObject(out) : parseArray(out);
            --depth_;
            return ok;
        }
        if (c == '"')
            return parseString(out);
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return parseNumber(out);
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            *out = JsonValue::makeBool(true);
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            *out = JsonValue::makeBool(false);
            return true;
        }
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            *out = JsonValue();
            return true;
        }
        return fail("unexpected character '" + std::string(1, c) + "'");
    }

    bool parseObject(JsonValue *out)
    {
        ++pos_; // '{'
        *out = JsonValue::makeObject();
        skipWhitespace();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWhitespace();
            JsonValue key;
            if (atEnd() || peek() != '"')
                return fail("expected a quoted object key");
            if (!parseString(&key))
                return false;
            if (out->find(key.asString()) != nullptr)
                return fail("duplicate key \"" + key.asString() + "\"");
            skipWhitespace();
            if (!expect(':'))
                return false;
            JsonValue value;
            if (!parseValue(&value))
                return false;
            out->set(key.asString(), std::move(value));
            skipWhitespace();
            if (!atEnd() && peek() == ',') {
                ++pos_;
                continue;
            }
            return expect('}');
        }
    }

    bool parseArray(JsonValue *out)
    {
        ++pos_; // '['
        *out = JsonValue::makeArray();
        skipWhitespace();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue value;
            if (!parseValue(&value))
                return false;
            out->push(std::move(value));
            skipWhitespace();
            if (!atEnd() && peek() == ',') {
                ++pos_;
                continue;
            }
            return expect(']');
        }
    }

    bool parseHex4(unsigned *out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else
                return fail("bad \\u escape digit");
        }
        *out = code;
        return true;
    }

    static void appendUtf8(std::string &s, unsigned code)
    {
        if (code < 0x80) {
            s.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            s.push_back(static_cast<char>(0xC0 | (code >> 6)));
            s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            s.push_back(static_cast<char>(0xE0 | (code >> 12)));
            s.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            s.push_back(static_cast<char>(0xF0 | (code >> 18)));
            s.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
    }

    bool parseString(JsonValue *out)
    {
        ++pos_; // '"'
        std::string s;
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                break;
            if (c != '\\') {
                s.push_back(c);
                continue;
            }
            if (atEnd())
                return fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"': s.push_back('"'); break;
              case '\\': s.push_back('\\'); break;
              case '/': s.push_back('/'); break;
              case 'n': s.push_back('\n'); break;
              case 't': s.push_back('\t'); break;
              case 'r': s.push_back('\r'); break;
              case 'b': s.push_back('\b'); break;
              case 'f': s.push_back('\f'); break;
              case 'u': {
                unsigned code = 0;
                if (!parseHex4(&code))
                    return false;
                // Surrogate pairs combine into one supplementary code
                // point; a lone surrogate would emit invalid UTF-8.
                if (code >= 0xDC00 && code <= 0xDFFF)
                    return fail("unpaired low \\u surrogate");
                if (code >= 0xD800 && code <= 0xDBFF) {
                    if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                        text_[pos_ + 1] != 'u')
                        return fail("unpaired high \\u surrogate");
                    pos_ += 2;
                    unsigned low = 0;
                    if (!parseHex4(&low))
                        return false;
                    if (low < 0xDC00 || low > 0xDFFF)
                        return fail("invalid \\u surrogate pair");
                    code = 0x10000 + ((code - 0xD800) << 10) +
                           (low - 0xDC00);
                }
                appendUtf8(s, code);
                break;
              }
              default:
                return fail(std::string("unknown escape '\\") + e + "'");
            }
        }
        *out = JsonValue::makeString(std::move(s));
        return true;
    }

    bool parseNumber(JsonValue *out)
    {
        const std::size_t start = pos_;
        if (!atEnd() && peek() == '-')
            ++pos_;
        bool integral = true;
        while (!atEnd()) {
            const char c = peek();
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string literal = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double value = std::strtod(literal.c_str(), &end);
        if (end == literal.c_str() || *end != '\0') {
            pos_ = start;
            return fail("malformed number '" + literal + "'");
        }
        if (!std::isfinite(value)) {
            // An overflowing literal silently becoming inf would dump
            // as null and break the advertised round-trip.
            pos_ = start;
            return fail("number '" + literal + "' is out of range");
        }
        if (integral) {
            // Exact 64-bit round-trip for seeds and byte counts —
            // negatives through int64, positives through the full
            // uint64 range; beyond that strtoll/strtoull would
            // silently saturate, so reject instead of running a
            // different value than written.
            errno = 0;
            if (literal[0] == '-') {
                const long long exact =
                    std::strtoll(literal.c_str(), nullptr, 10);
                if (errno == ERANGE) {
                    pos_ = start;
                    return fail("integer '" + literal +
                                "' is out of 64-bit range");
                }
                *out = JsonValue::makeInt(
                    static_cast<std::int64_t>(exact));
            } else {
                const unsigned long long exact =
                    std::strtoull(literal.c_str(), nullptr, 10);
                if (errno == ERANGE) {
                    pos_ = start;
                    return fail("integer '" + literal +
                                "' is out of 64-bit range");
                }
                *out = JsonValue::makeUint64(
                    static_cast<std::uint64_t>(exact));
            }
        } else {
            *out = JsonValue::makeNumber(value);
        }
        return true;
    }

    static constexpr int kMaxDepth = 128;

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

} // namespace

std::optional<JsonValue>
parseJson(const std::string &text, std::string *error)
{
    Parser parser(text);
    return parser.parse(error);
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    appendEscaped(out, s);
    return out;
}

// ---------------------------------------------------------------------
// JsonObjectReader.
// ---------------------------------------------------------------------

JsonObjectReader::JsonObjectReader(const JsonValue &value,
                                   std::string path, std::string *error)
    : value_(value), path_(std::move(path)), error_(error)
{
    if (!value_.isObject()) {
        fail("", std::string("expects an object, got ") +
                     JsonValue::kindName(value_.kind()));
    }
}

bool
JsonObjectReader::getBool(const std::string &key, bool *out)
{
    const JsonValue *v = consume(key);
    if (v == nullptr)
        return ok_;
    if (!v->isBool())
        return fail(key, typeMessage("a bool", *v));
    *out = v->asBool();
    return true;
}

bool
JsonObjectReader::getDouble(const std::string &key, double *out)
{
    const JsonValue *v = consume(key);
    if (v == nullptr)
        return ok_;
    if (!v->isNumber())
        return fail(key, typeMessage("a number", *v));
    *out = v->asNumber();
    return true;
}

bool
JsonObjectReader::getInt64(const std::string &key, std::int64_t *out)
{
    const JsonValue *v = consume(key);
    if (v == nullptr)
        return ok_;
    if (!v->isNumber() || !v->isIntegral())
        return fail(key, typeMessage("an integer", *v));
    if (v->isUnsignedIntegral())
        return fail(key, "is out of range for a signed 64-bit integer");
    *out = v->asInt();
    return true;
}

bool
JsonObjectReader::getInt(const std::string &key, int *out)
{
    std::int64_t wide = *out;
    if (!getInt64(key, &wide))
        return false;
    if (wide < std::numeric_limits<int>::min() ||
        wide > std::numeric_limits<int>::max())
        return fail(key, "is out of range for a 32-bit integer");
    *out = static_cast<int>(wide);
    return true;
}

bool
JsonObjectReader::getSize(const std::string &key, std::size_t *out)
{
    std::int64_t wide = static_cast<std::int64_t>(*out);
    if (!getInt64(key, &wide))
        return false;
    if (wide < 0)
        return fail(key, "must be non-negative");
    *out = static_cast<std::size_t>(wide);
    return true;
}

bool
JsonObjectReader::getUint64(const std::string &key, std::uint64_t *out)
{
    const JsonValue *v = consume(key);
    if (v == nullptr)
        return ok_;
    if (!v->isNumber() || !v->isIntegral())
        return fail(key, typeMessage("an integer", *v));
    if (v->asInt() < 0 && !v->isUnsignedIntegral())
        return fail(key, "must be non-negative");
    *out = v->asUint64();
    return true;
}

bool
JsonObjectReader::getString(const std::string &key, std::string *out)
{
    const JsonValue *v = consume(key);
    if (v == nullptr)
        return ok_;
    if (!v->isString())
        return fail(key, typeMessage("a string", *v));
    *out = v->asString();
    return true;
}

const JsonValue *
JsonObjectReader::child(const std::string &key)
{
    return consume(key);
}

bool
JsonObjectReader::fail(const std::string &key, const std::string &message)
{
    if (ok_ && error_ != nullptr)
        *error_ = "\"" + pathOf(key) + "\" " + message;
    ok_ = false;
    return false;
}

bool
JsonObjectReader::finish()
{
    if (!ok_)
        return false;
    for (const auto &[key, value] : value_.members()) {
        bool seen = false;
        for (const auto &c : consumed_)
            seen = seen || c == key;
        if (!seen)
            return fail(key, "is not a recognised key");
    }
    return true;
}

std::string
JsonObjectReader::pathOf(const std::string &key) const
{
    if (key.empty())
        return path_;
    return path_.empty() ? key : path_ + "." + key;
}

std::string
JsonObjectReader::typeMessage(const std::string &want, const JsonValue &v)
{
    return "expects " + want + ", got " + JsonValue::kindName(v.kind());
}

const JsonValue *
JsonObjectReader::consume(const std::string &key)
{
    if (!ok_ || !value_.isObject())
        return nullptr;
    consumed_.push_back(key);
    return value_.find(key);
}

} // namespace chameleon::sim
