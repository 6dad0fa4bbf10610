/**
 * @file
 * Minimal JSON support for machine-readable statistics dumps and for
 * the user-facing ingestion paths (custom workload profiles, batch
 * specs, imported idle profiles). JsonWriter emits RFC 8259 JSON;
 * parseJson() reads it back into a JsonValue tree.
 */

#ifndef LSIM_COMMON_JSON_HH
#define LSIM_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace lsim
{

/**
 * Streaming JSON writer with explicit begin/end nesting. Usage:
 * @code
 *   JsonWriter w(os);
 *   w.beginObject();
 *   w.field("ipc", 1.25);
 *   w.beginArray("units");
 *   w.value(0.5);
 *   w.endArray();
 *   w.endObject();
 * @endcode
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os);

    /** Open the root or a nested object (named inside objects). */
    void beginObject();
    void beginObject(const std::string &key);
    void endObject();

    /** Open an array (named inside objects). */
    void beginArray();
    void beginArray(const std::string &key);
    void endArray();

    /** Emit a key/value pair inside an object. */
    void field(const std::string &key, const std::string &value);
    void field(const std::string &key, const char *value);
    void field(const std::string &key, double value);
    void field(const std::string &key, std::uint64_t value);
    void field(const std::string &key, unsigned value);
    void field(const std::string &key, bool value);

    /** Emit a bare value inside an array. */
    void value(const std::string &value);
    void value(double value);
    void value(std::uint64_t value);

    /** @return true when all opened scopes have been closed. */
    bool balanced() const { return depth_ == 0 && started_; }

  private:
    void separator();
    void key(const std::string &name);
    void raw(const std::string &text);
    static std::string escape(const std::string &text);
    static std::string number(double value);

    std::ostream &os_;
    std::vector<bool> first_; ///< per-scope "no element yet" flags
    int depth_ = 0;
    bool started_ = false;
};

/**
 * One parsed JSON value. Structured as a tree: arrays own their
 * element values, objects own ordered (key, value) member pairs.
 *
 * Accessors throw std::invalid_argument when the value is not of the
 * requested kind, so ingestion code can surface "field X is not a
 * number" errors without manual kind checks at every site. These are
 * user-input errors, never programmer errors, hence
 * std::invalid_argument (the library-wide convention).
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default; ///< null

    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue
    makeObject(std::vector<std::pair<std::string, JsonValue>> members);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Number checked to be a non-negative integer (fits uint64). */
    std::uint64_t asU64() const;

    /** Array elements, in document order. */
    const std::vector<JsonValue> &items() const;

    /** Object members, in document order (duplicates preserved). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /** Object member named @p key, or nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /** Object member named @p key; throws when absent. */
    const JsonValue &at(const std::string &key) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Parse one JSON document from @p text (trailing whitespace only
 * after the value). Throws std::invalid_argument with a line:column
 * position on malformed input.
 */
JsonValue parseJson(const std::string &text);

/** parseJson() over the contents of @p path; throws
 * std::invalid_argument when the file cannot be read. */
JsonValue parseJsonFile(const std::string &path);

} // namespace lsim

#endif // LSIM_COMMON_JSON_HH
