/**
 * @file
 * Minimal JSON construction for machine-readable bench output. Every
 * sweep dumps a `BENCH_*.json`-style record (workload, config knobs,
 * cycles, IPC, stall/structure counters) next to its human tables so
 * downstream tooling never scrapes TextTable output.
 *
 * Deliberately tiny: objects and arrays hold values in insertion
 * order, numbers are emitted with enough precision to round-trip, and
 * strings are escaped per RFC 8259. Output is locale-independent (a
 * comma-decimal global C locale cannot corrupt a document) and
 * writeJsonFile publishes crash-atomically via write-then-rename.
 *
 * A matching recursive-descent parser (JsonValue::parse) covers the
 * documents this writer produces — used by noreba-stats-diff and the
 * schema round-trip tests; it is not a general validating parser.
 */

#ifndef NOREBA_COMMON_JSON_H
#define NOREBA_COMMON_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace noreba {

/** One JSON value: null, bool, number, string, array or object. */
class JsonValue
{
  public:
    JsonValue() : kind_(Kind::Null) {}
    JsonValue(bool v) : kind_(Kind::Bool), bool_(v) {}
    JsonValue(double v) : kind_(Kind::Double), double_(v) {}
    JsonValue(int v) : kind_(Kind::Int), int_(v) {}
    JsonValue(int64_t v) : kind_(Kind::Int), int_(v) {}
    JsonValue(uint64_t v) : kind_(Kind::Uint), uint_(v) {}
    JsonValue(const char *v) : kind_(Kind::String), string_(v) {}
    JsonValue(std::string v) : kind_(Kind::String), string_(std::move(v)) {}

    /** Named constructors for the container kinds. */
    static JsonValue object();
    static JsonValue array();

    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isString() const { return kind_ == Kind::String; }
    bool
    isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Uint ||
               kind_ == Kind::Double;
    }

    /** @name Scalar accessors (panic on kind mismatch) @{ */
    bool asBool() const;
    /** Any number kind, converted. */
    double asDouble() const;
    /** Int, or a Uint that fits. */
    int64_t asInt() const;
    /** Uint, or a non-negative Int. */
    uint64_t asUint() const;
    const std::string &asString() const;
    /** @} */

    /** Object member lookup; nullptr when absent. @pre isObject(). */
    const JsonValue *find(const std::string &key) const;

    /** Element / member value at position @p i. @pre i < size(). */
    const JsonValue &at(size_t i) const;

    /** Key of member @p i (empty string for array entries). */
    const std::string &keyAt(size_t i) const;

    /** Set (or overwrite) a member. @pre isObject(). */
    JsonValue &set(const std::string &key, JsonValue value);

    /** Append an element. @pre isArray(). */
    JsonValue &push(JsonValue value);

    size_t size() const { return members_.size(); }

    /** Serialize; @p indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /** RFC 8259 string escaping (quotes included). */
    static std::string escape(const std::string &s);

    /**
     * Parse one JSON document. On failure returns a Null value and,
     * when @p err is non-null, stores a message with the byte offset
     * of the first error. Numbers parse locale-independently; integer
     * literals keep full 64-bit precision (Int, then Uint, then
     * Double).
     */
    static JsonValue parse(const std::string &text,
                           std::string *err = nullptr);

  private:
    enum class Kind { Null, Bool, Int, Uint, Double, String, Array, Object };

    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_;
    bool bool_ = false;
    int64_t int_ = 0;
    uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    // Object members and array elements share storage; array entries
    // carry empty keys.
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/** Write @p value to @p path (pretty-printed); fatal() on I/O failure. */
void writeJsonFile(const std::string &path, const JsonValue &value);

} // namespace noreba

#endif // NOREBA_COMMON_JSON_H
