/**
 * @file
 * Minimal JSON document model used for machine-readable experiment
 * results. Supports exactly what the bench binaries and the stats
 * registry need: null/bool/integer/double/string scalars, arrays,
 * insertion-ordered objects, pretty printing, and a strict parser for
 * round-tripping results back into tests and tooling.
 *
 * Doubles are printed with enough digits (max_digits10) to
 * round-trip bit-exactly; non-finite doubles serialize as null (JSON
 * has no NaN/Inf), which is how empty-distribution min/max appear in
 * results files.
 */

#ifndef KILLI_COMMON_JSON_HH
#define KILLI_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace killi
{

class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,
        Double,
        String,
        Array,
        Object
    };

    /** Default-constructed value is null. */
    Json() = default;

    static Json null() { return Json(); }
    static Json boolean(bool b);
    static Json number(std::int64_t v);
    static Json number(std::uint64_t v);
    static Json number(double v);
    static Json string(std::string s);
    static Json array();
    static Json object();
    /** An array of the strings in @p items, in order. */
    static Json stringArray(const std::vector<std::string> &items);

    Kind kind() const { return k; }
    bool isNull() const { return k == Kind::Null; }
    bool isNumber() const { return k == Kind::Int || k == Kind::Double; }

    /** Scalar accessors; fatal() on kind mismatch. */
    bool asBool() const;
    std::int64_t asInt() const;
    double asDouble() const; //!< accepts Int and Double
    const std::string &asString() const;

    /** Array access. */
    void push(Json value);
    std::size_t size() const; //!< array or object element count
    const Json &at(std::size_t index) const;

    /** Object access (insertion-ordered). */
    void set(const std::string &key, Json value);
    bool contains(const std::string &key) const;
    /** Fetch a member; fatal() if absent or not an object. */
    const Json &at(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>> &members() const;

    /** Serialize; @p indent 0 renders compact single-line JSON. */
    void dump(std::ostream &os, int indent = 2) const;
    std::string toString(int indent = 2) const;

    /**
     * Strict parser for the subset dump() emits (standard JSON minus
     * non-ASCII \\u escapes). Duplicate object keys, trailing
     * characters, and nesting deeper than 96 containers are rejected.
     * Returns false and fills @p err on malformed input.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *err = nullptr);

    bool operator==(const Json &other) const;
    bool operator!=(const Json &other) const { return !(*this == other); }

  private:
    void dumpValue(std::ostream &os, int indent, int depth) const;

    Kind k = Kind::Null;
    bool b = false;
    std::int64_t i = 0;
    double d = 0.0;
    std::string s;
    std::vector<Json> elems;
    std::vector<std::pair<std::string, Json>> fields;
};

/**
 * Write @p doc to @p path (pretty-printed, trailing newline),
 * creating parent directories as needed; fatal() on I/O failure.
 */
void writeJsonFile(const std::string &path, const Json &doc);

/** Read and parse a JSON file; fatal() on I/O or parse failure. */
Json readJsonFile(const std::string &path);

/**
 * Non-fatal variant of readJsonFile() for long-lived processes (the
 * serving daemon must answer a bad file or frame with an error
 * reply, never exit): returns false and fills @p err on I/O or parse
 * failure, leaving @p out untouched.
 */
bool tryReadJsonFile(const std::string &path, Json &out,
                     std::string *err = nullptr);

} // namespace killi

#endif // KILLI_COMMON_JSON_HH
