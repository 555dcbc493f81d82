#include "common/json.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cinttypes>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.h"

namespace noreba {

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue value)
{
    panic_if(kind_ != Kind::Object, "set() on a non-object JSON value");
    for (auto &m : members_) {
        if (m.first == key) {
            m.second = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

JsonValue &
JsonValue::push(JsonValue value)
{
    panic_if(kind_ != Kind::Array, "push() on a non-array JSON value");
    members_.emplace_back(std::string(), std::move(value));
    return *this;
}

std::string
JsonValue::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out.push_back('"');
    return out;
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    char buf[64];
    switch (kind_) {
      case Kind::Null:
        out += "null";
        return;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        return;
      case Kind::Int:
        std::snprintf(buf, sizeof(buf), "%" PRId64, int_);
        out += buf;
        return;
      case Kind::Uint:
        std::snprintf(buf, sizeof(buf), "%" PRIu64, uint_);
        out += buf;
        return;
      case Kind::Double: {
        // NaN/Inf are not representable in JSON; emit null like most
        // serializers do.
        if (!std::isfinite(double_)) {
            out += "null";
            return;
        }
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        // %.17g follows the global C locale: under e.g. de_DE it
        // prints a decimal *comma*, which is invalid JSON. Normalize
        // the locale's decimal_point back to '.'.
        const char *dp = std::localeconv()->decimal_point;
        const char *comma = dp && std::strcmp(dp, ".") != 0
                                ? std::strstr(buf, dp)
                                : nullptr;
        if (comma) {
            out.append(buf, static_cast<size_t>(comma - buf));
            out += '.';
            out += comma + std::strlen(dp);
            return;
        }
        out += buf;
        return;
      }
      case Kind::String:
        out += escape(string_);
        return;
      case Kind::Array:
      case Kind::Object:
        break;
    }

    const bool object = kind_ == Kind::Object;
    out.push_back(object ? '{' : '[');
    std::string pad;
    if (indent > 0) {
        pad += '\n';
        pad.append(static_cast<size_t>(indent) *
                       (static_cast<size_t>(depth) + 1),
                   ' ');
    }
    bool first = true;
    for (const auto &m : members_) {
        if (!first)
            out.push_back(',');
        first = false;
        out += pad;
        if (object) {
            out += escape(m.first);
            out += indent > 0 ? ": " : ":";
        }
        m.second.dumpTo(out, indent, depth + 1);
    }
    if (!first && indent > 0) {
        out.push_back('\n');
        out += std::string(
            static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ');
    }
    out.push_back(object ? '}' : ']');
}

bool
JsonValue::asBool() const
{
    panic_if(kind_ != Kind::Bool, "asBool() on a non-bool JSON value");
    return bool_;
}

double
JsonValue::asDouble() const
{
    switch (kind_) {
      case Kind::Int: return static_cast<double>(int_);
      case Kind::Uint: return static_cast<double>(uint_);
      case Kind::Double: return double_;
      default: panic("asDouble() on a non-number JSON value");
    }
}

int64_t
JsonValue::asInt() const
{
    if (kind_ == Kind::Int)
        return int_;
    panic_if(kind_ != Kind::Uint || uint_ > static_cast<uint64_t>(
                                                INT64_MAX),
             "asInt() on a non-integer (or out-of-range) JSON value");
    return static_cast<int64_t>(uint_);
}

uint64_t
JsonValue::asUint() const
{
    if (kind_ == Kind::Uint)
        return uint_;
    panic_if(kind_ != Kind::Int || int_ < 0,
             "asUint() on a non-integer (or negative) JSON value");
    return static_cast<uint64_t>(int_);
}

const std::string &
JsonValue::asString() const
{
    panic_if(kind_ != Kind::String,
             "asString() on a non-string JSON value");
    return string_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    panic_if(kind_ != Kind::Object, "find() on a non-object JSON value");
    for (const auto &m : members_) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(size_t i) const
{
    panic_if(i >= members_.size(), "at(%zu) past size %zu", i,
             members_.size());
    return members_[i].second;
}

const std::string &
JsonValue::keyAt(size_t i) const
{
    panic_if(i >= members_.size(), "keyAt(%zu) past size %zu", i,
             members_.size());
    return members_[i].first;
}

namespace {

/** Recursive-descent parser over a complete in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text)
        : begin_(text.data()), p_(text.data()),
          end_(text.data() + text.size())
    {
    }

    bool
    document(JsonValue &out)
    {
        skipWs();
        if (!value(out, 0))
            return false;
        skipWs();
        if (p_ != end_)
            return fail("trailing characters after document");
        return true;
    }

    std::string error;

  private:
    static constexpr int MAX_DEPTH = 128;

    bool
    fail(const char *msg)
    {
        if (error.empty())
            error = std::string(msg) + " at byte " +
                    std::to_string(p_ - begin_);
        return false;
    }

    void
    skipWs()
    {
        while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' ||
                              *p_ == '\n' || *p_ == '\r'))
            ++p_;
    }

    bool
    literal(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (static_cast<size_t>(end_ - p_) < n ||
            std::memcmp(p_, lit, n) != 0)
            return false;
        p_ += n;
        return true;
    }

    bool
    value(JsonValue &out, int depth)
    {
        if (depth > MAX_DEPTH)
            return fail("nesting too deep");
        if (p_ == end_)
            return fail("unexpected end of input");
        switch (*p_) {
          case '{': return object(out, depth);
          case '[': return array(out, depth);
          case '"': {
            std::string s;
            if (!string(s))
                return false;
            out = JsonValue(std::move(s));
            return true;
          }
          case 't':
            if (!literal("true"))
                return fail("invalid literal");
            out = JsonValue(true);
            return true;
          case 'f':
            if (!literal("false"))
                return fail("invalid literal");
            out = JsonValue(false);
            return true;
          case 'n':
            if (!literal("null"))
                return fail("invalid literal");
            out = JsonValue();
            return true;
          default:
            return number(out);
        }
    }

    bool
    object(JsonValue &out, int depth)
    {
        ++p_; // '{'
        out = JsonValue::object();
        skipWs();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        for (;;) {
            skipWs();
            if (p_ == end_ || *p_ != '"')
                return fail("expected object key");
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (p_ == end_ || *p_ != ':')
                return fail("expected ':'");
            ++p_;
            skipWs();
            JsonValue v;
            if (!value(v, depth + 1))
                return false;
            out.set(key, std::move(v));
            skipWs();
            if (p_ == end_)
                return fail("unterminated object");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == '}') {
                ++p_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(JsonValue &out, int depth)
    {
        ++p_; // '['
        out = JsonValue::array();
        skipWs();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue v;
            if (!value(v, depth + 1))
                return false;
            out.push(std::move(v));
            skipWs();
            if (p_ == end_)
                return fail("unterminated array");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == ']') {
                ++p_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    hex4(uint32_t &out)
    {
        if (end_ - p_ < 4)
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = *p_++;
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return fail("invalid \\u escape");
        }
        return true;
    }

    static void
    encodeUtf8(uint32_t cp, std::string &out)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    string(std::string &out)
    {
        ++p_; // '"'
        out.clear();
        while (p_ != end_) {
            unsigned char c = static_cast<unsigned char>(*p_);
            if (c == '"') {
                ++p_;
                return true;
            }
            if (c < 0x20)
                return fail("unescaped control character");
            if (c != '\\') {
                out.push_back(static_cast<char>(c));
                ++p_;
                continue;
            }
            if (++p_ == end_)
                return fail("truncated escape");
            switch (*p_++) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                uint32_t cp = 0;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: consume the paired low half.
                    if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u')
                        return fail("unpaired surrogate");
                    p_ += 2;
                    uint32_t lo = 0;
                    if (!hex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("unpaired surrogate");
                }
                encodeUtf8(cp, out);
                break;
              }
              default: return fail("invalid escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    number(JsonValue &out)
    {
        const char *start = p_;
        if (p_ != end_ && *p_ == '-')
            ++p_;
        bool isInt = true;
        auto digits = [&] {
            const char *d = p_;
            while (p_ != end_ && *p_ >= '0' && *p_ <= '9')
                ++p_;
            return p_ != d;
        };
        if (!digits())
            return fail("invalid number");
        if (p_ != end_ && *p_ == '.') {
            isInt = false;
            ++p_;
            if (!digits())
                return fail("invalid number");
        }
        if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
            isInt = false;
            ++p_;
            if (p_ != end_ && (*p_ == '+' || *p_ == '-'))
                ++p_;
            if (!digits())
                return fail("invalid number");
        }
        // std::from_chars is locale-independent by definition — the
        // inverse of the writer's forced-'.' output.
        if (isInt) {
            int64_t i;
            auto r = std::from_chars(start, p_, i);
            if (r.ec == std::errc() && r.ptr == p_) {
                out = JsonValue(i);
                return true;
            }
            uint64_t u;
            auto ru = std::from_chars(start, p_, u);
            if (ru.ec == std::errc() && ru.ptr == p_) {
                out = JsonValue(u);
                return true;
            }
        }
        double d;
        auto rd = std::from_chars(start, p_, d);
        if (rd.ec != std::errc() || rd.ptr != p_)
            return fail("number out of range");
        out = JsonValue(d);
        return true;
    }

    const char *begin_;
    const char *p_;
    const char *end_;
};

} // namespace

JsonValue
JsonValue::parse(const std::string &text, std::string *err)
{
    JsonParser parser(text);
    JsonValue out;
    if (parser.document(out)) {
        if (err)
            err->clear();
        return out;
    }
    if (err)
        *err = parser.error;
    return JsonValue();
}

void
writeJsonFile(const std::string &path, const JsonValue &value)
{
    std::string text = value.dump(2);
    text.push_back('\n');

    // Atomic publication (same pattern as the stores): write a unique
    // temp file and rename it over the target, so no reader sees and
    // no killed run leaves a partial document under the final name. The
    // data is not forced to disk; after a host crash, rerun the
    // experiment (its results replay from the result store).
    static std::atomic<uint64_t> seq{0};
    const std::string tmp = path + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(seq++);
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    fatal_if(fd < 0, "cannot create %s", tmp.c_str());
    size_t written = 0;
    while (written < text.size()) {
        ssize_t n =
            ::write(fd, text.data() + written, text.size() - written);
        if (n <= 0) {
            ::close(fd);
            ::unlink(tmp.c_str());
            fatal("short write to %s", tmp.c_str());
        }
        written += static_cast<size_t>(n);
    }
    if (::close(fd) != 0 ||
        ::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        fatal("cannot publish %s", path.c_str());
    }
}

} // namespace noreba
