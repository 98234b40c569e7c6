#include "common/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/log.hh"

namespace killi
{

Json
Json::boolean(bool b)
{
    Json v;
    v.k = Kind::Bool;
    v.b = b;
    return v;
}

Json
Json::number(std::int64_t value)
{
    Json v;
    v.k = Kind::Int;
    v.i = value;
    return v;
}

Json
Json::number(std::uint64_t value)
{
    // All counters in this project fit comfortably in 63 bits; keep
    // the stored representation signed so parse() round-trips.
    if (value > std::uint64_t(std::numeric_limits<std::int64_t>::max()))
        return number(double(value));
    return number(std::int64_t(value));
}

Json
Json::number(double value)
{
    Json v;
    v.k = Kind::Double;
    v.d = value;
    return v;
}

Json
Json::string(std::string s)
{
    Json v;
    v.k = Kind::String;
    v.s = std::move(s);
    return v;
}

Json
Json::array()
{
    Json v;
    v.k = Kind::Array;
    return v;
}

Json
Json::stringArray(const std::vector<std::string> &items)
{
    Json v = array();
    for (const std::string &item : items)
        v.push(string(item));
    return v;
}

Json
Json::object()
{
    Json v;
    v.k = Kind::Object;
    return v;
}

bool
Json::asBool() const
{
    if (k != Kind::Bool)
        fatal("json: asBool() on a non-bool value");
    return b;
}

std::int64_t
Json::asInt() const
{
    if (k != Kind::Int)
        fatal("json: asInt() on a non-integer value");
    return i;
}

double
Json::asDouble() const
{
    if (k == Kind::Int)
        return double(i);
    if (k == Kind::Double)
        return d;
    fatal("json: asDouble() on a non-number value");
}

const std::string &
Json::asString() const
{
    if (k != Kind::String)
        fatal("json: asString() on a non-string value");
    return s;
}

void
Json::push(Json value)
{
    if (k != Kind::Array)
        fatal("json: push() on a non-array value");
    elems.push_back(std::move(value));
}

std::size_t
Json::size() const
{
    if (k == Kind::Array)
        return elems.size();
    if (k == Kind::Object)
        return fields.size();
    fatal("json: size() on a scalar value");
}

const Json &
Json::at(std::size_t index) const
{
    if (k != Kind::Array)
        fatal("json: at(index) on a non-array value");
    if (index >= elems.size())
        fatal("json: array index %zu out of range (size %zu)", index,
              elems.size());
    return elems[index];
}

void
Json::set(const std::string &key, Json value)
{
    if (k != Kind::Object)
        fatal("json: set() on a non-object value");
    for (auto &[name, member] : fields) {
        if (name == key) {
            member = std::move(value);
            return;
        }
    }
    fields.emplace_back(key, std::move(value));
}

bool
Json::contains(const std::string &key) const
{
    if (k != Kind::Object)
        return false;
    for (const auto &[name, member] : fields) {
        (void)member;
        if (name == key)
            return true;
    }
    return false;
}

const Json &
Json::at(const std::string &key) const
{
    if (k != Kind::Object)
        fatal("json: at(\"%s\") on a non-object value", key.c_str());
    for (const auto &[name, member] : fields) {
        if (name == key)
            return member;
    }
    fatal("json: object has no member \"%s\"", key.c_str());
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (k != Kind::Object)
        fatal("json: members() on a non-object value");
    return fields;
}

namespace
{

void
dumpString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
dumpDouble(std::ostream &os, double d)
{
    if (!std::isfinite(d)) {
        os << "null"; // JSON has no NaN/Inf
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g",
                  std::numeric_limits<double>::max_digits10, d);
    os << buf;
    // Keep a float marker so parse() restores the Double kind.
    const std::string text(buf);
    if (text.find_first_of(".eE") == std::string::npos)
        os << ".0";
}

void
newlineIndent(std::ostream &os, int indent, int depth)
{
    if (indent <= 0)
        return;
    os << '\n';
    for (int i = 0; i < indent * depth; ++i)
        os << ' ';
}

} // namespace

void
Json::dumpValue(std::ostream &os, int indent, int depth) const
{
    switch (k) {
      case Kind::Null:
        os << "null";
        break;
      case Kind::Bool:
        os << (b ? "true" : "false");
        break;
      case Kind::Int:
        os << i;
        break;
      case Kind::Double:
        dumpDouble(os, d);
        break;
      case Kind::String:
        dumpString(os, s);
        break;
      case Kind::Array:
        if (elems.empty()) {
            os << "[]";
            break;
        }
        os << '[';
        for (std::size_t n = 0; n < elems.size(); ++n) {
            if (n)
                os << ',';
            newlineIndent(os, indent, depth + 1);
            elems[n].dumpValue(os, indent, depth + 1);
        }
        newlineIndent(os, indent, depth);
        os << ']';
        break;
      case Kind::Object:
        if (fields.empty()) {
            os << "{}";
            break;
        }
        os << '{';
        for (std::size_t n = 0; n < fields.size(); ++n) {
            if (n)
                os << ',';
            newlineIndent(os, indent, depth + 1);
            dumpString(os, fields[n].first);
            os << (indent > 0 ? ": " : ":");
            fields[n].second.dumpValue(os, indent, depth + 1);
        }
        newlineIndent(os, indent, depth);
        os << '}';
        break;
    }
}

void
Json::dump(std::ostream &os, int indent) const
{
    dumpValue(os, indent, 0);
}

std::string
Json::toString(int indent) const
{
    std::ostringstream os;
    dump(os, indent);
    return os.str();
}

bool
Json::operator==(const Json &other) const
{
    if (k != other.k)
        return false;
    switch (k) {
      case Kind::Null: return true;
      case Kind::Bool: return b == other.b;
      case Kind::Int: return i == other.i;
      case Kind::Double:
        // NaN == NaN for round-trip comparisons of empty stats.
        return (std::isnan(d) && std::isnan(other.d)) || d == other.d;
      case Kind::String: return s == other.s;
      case Kind::Array: return elems == other.elems;
      case Kind::Object: return fields == other.fields;
    }
    return false;
}

namespace
{

/** Recursive-descent parser over a raw character range. The parser
 *  is strict: trailing characters, duplicate object keys, and
 *  nesting beyond kMaxDepth (a stack-overflow guard for adversarial
 *  inputs) are all parse errors. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *err)
        : text(text), err(err)
    {
    }

    bool
    run(Json &out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        if (pos != text.size())
            return fail("trailing characters after JSON value");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        if (err && err->empty()) {
            *err = what + " at offset " + std::to_string(pos);
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    literal(const char *word, Json v, Json &out)
    {
        const std::size_t len = std::string(word).size();
        if (text.compare(pos, len, word) != 0)
            return fail("invalid literal");
        pos += len;
        out = std::move(v);
        return true;
    }

    bool
    stringToken(std::string &out)
    {
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected '\"'");
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= text.size())
                return fail("unterminated escape");
            c = text[pos++];
            switch (c) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'n': out.push_back('\n'); break;
              case 't': out.push_back('\t'); break;
              case 'r': out.push_back('\r'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int n = 0; n < 4; ++n) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        return fail("invalid \\u escape");
                }
                if (code > 0x7f)
                    return fail("non-ASCII \\u escape unsupported");
                out.push_back(char(code));
                break;
              }
              default:
                return fail("unknown escape character");
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos; // closing quote
        return true;
    }

    bool
    numberToken(Json &out)
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
        bool isDouble = false;
        if (pos < text.size() && text[pos] == '.') {
            isDouble = true;
            ++pos;
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos]))) {
                ++pos;
            }
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            isDouble = true;
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-')) {
                ++pos;
            }
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos]))) {
                ++pos;
            }
        }
        const std::string token = text.substr(start, pos - start);
        if (token.empty() || token == "-")
            return fail("invalid number");
        errno = 0;
        char *end = nullptr;
        if (isDouble) {
            const double v = std::strtod(token.c_str(), &end);
            if (end != token.c_str() + token.size())
                return fail("invalid number");
            out = Json::number(v);
        } else {
            const long long v = std::strtoll(token.c_str(), &end, 10);
            if (end != token.c_str() + token.size() || errno == ERANGE)
                return fail("invalid integer");
            out = Json::number(std::int64_t(v));
        }
        return true;
    }

    bool
    value(Json &out)
    {
        if (pos >= text.size())
            return fail("unexpected end of input");
        switch (text[pos]) {
          case 'n': return literal("null", Json::null(), out);
          case 't': return literal("true", Json::boolean(true), out);
          case 'f': return literal("false", Json::boolean(false), out);
          case '"': {
            std::string s;
            if (!stringToken(s))
                return false;
            out = Json::string(std::move(s));
            return true;
          }
          case '[': {
            if (depth >= kMaxDepth)
                return fail("nesting depth limit exceeded");
            ++depth;
            ++pos;
            out = Json::array();
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                --depth;
                return true;
            }
            while (true) {
                Json elem;
                skipWs();
                if (!value(elem))
                    return false;
                out.push(std::move(elem));
                skipWs();
                if (pos >= text.size())
                    return fail("unterminated array");
                if (text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (text[pos] == ']') {
                    ++pos;
                    --depth;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '{': {
            if (depth >= kMaxDepth)
                return fail("nesting depth limit exceeded");
            ++depth;
            ++pos;
            out = Json::object();
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                --depth;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!stringToken(key))
                    return false;
                skipWs();
                if (pos >= text.size() || text[pos] != ':')
                    return fail("expected ':'");
                ++pos;
                skipWs();
                Json member;
                if (!value(member))
                    return false;
                if (out.contains(key))
                    return fail("duplicate object key \"" + key + "\"");
                out.set(key, std::move(member));
                skipWs();
                if (pos >= text.size())
                    return fail("unterminated object");
                if (text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (text[pos] == '}') {
                    ++pos;
                    --depth;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          default:
            return numberToken(out);
        }
    }

    /** Containers deeper than this are rejected (recursion guard;
     *  every legitimate document in this project is < 10 deep). */
    static constexpr int kMaxDepth = 96;

    const std::string &text;
    std::string *err;
    std::size_t pos = 0;
    int depth = 0;
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string *err)
{
    if (err)
        err->clear();
    Parser p(text, err);
    return p.run(out);
}

void
writeJsonFile(const std::string &path, const Json &doc)
{
    const std::filesystem::path fsPath(path);
    if (fsPath.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(fsPath.parent_path(), ec);
        if (ec) {
            fatal("json: cannot create directory '%s': %s",
                  fsPath.parent_path().c_str(), ec.message().c_str());
        }
    }
    std::ofstream out(path);
    if (!out)
        fatal("json: cannot open '%s' for writing", path.c_str());
    doc.dump(out, 2);
    out << '\n';
    if (!out)
        fatal("json: write to '%s' failed", path.c_str());
}

Json
readJsonFile(const std::string &path)
{
    Json doc;
    std::string err;
    if (!tryReadJsonFile(path, doc, &err))
        fatal("json: %s", err.c_str());
    return doc;
}

bool
tryReadJsonFile(const std::string &path, Json &out, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = "cannot open '" + path + "' for reading";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    Json doc;
    std::string parseErr;
    if (!Json::parse(buf.str(), doc, &parseErr)) {
        if (err)
            *err = "parse of '" + path + "' failed: " + parseErr;
        return false;
    }
    out = std::move(doc);
    return true;
}

} // namespace killi
