#include "common/options.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/log.hh"

namespace killi
{

bool
tryParseInt(const std::string &text, std::int64_t &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 0);
    if (end != text.c_str() + text.size() || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
tryParseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text[0] == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (end != text.c_str() + text.size() || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
tryParseDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
tryParseBool(const std::string &text, bool &out)
{
    if (text == "1" || text == "true" || text == "yes" || text == "on") {
        out = true;
        return true;
    }
    if (text == "0" || text == "false" || text == "no" ||
        text == "off") {
        out = false;
        return true;
    }
    return false;
}

namespace
{

template <typename T>
std::string
formatValue(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return v.empty() ? "\"\"" : v;
    } else if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
        std::ostringstream os;
        os << v;
        return os.str();
    } else {
        return std::to_string(v);
    }
}

template <typename T>
bool
tryParseAs(const std::string &text, T &out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = text;
        return true;
    } else if constexpr (std::is_same_v<T, bool>) {
        return tryParseBool(text, out);
    } else if constexpr (std::is_floating_point_v<T>) {
        return tryParseDouble(text, out);
    } else if constexpr (std::is_signed_v<T>) {
        std::int64_t v;
        if (!tryParseInt(text, v) ||
            v < std::int64_t(std::numeric_limits<T>::min()) ||
            v > std::int64_t(std::numeric_limits<T>::max())) {
            return false;
        }
        out = T(v);
        return true;
    } else {
        std::uint64_t v;
        if (!tryParseUint(text, v) ||
            v > std::uint64_t(std::numeric_limits<T>::max())) {
            return false;
        }
        out = T(v);
        return true;
    }
}

/** "l2.size" -> "KILLI_L2_SIZE". */
std::string
envNameOf(const std::string &key)
{
    std::string env = "KILLI_";
    for (const char c : key) {
        env.push_back(c == '.' || c == '-'
                          ? '_'
                          : static_cast<char>(std::toupper(
                                static_cast<unsigned char>(c))));
    }
    return env;
}

} // namespace

template <typename T>
const char *
Option<T>::typeName() const
{
    if constexpr (std::is_same_v<T, std::string>)
        return "string";
    else if constexpr (std::is_same_v<T, bool>)
        return "bool";
    else if constexpr (std::is_floating_point_v<T>)
        return "float";
    else if constexpr (std::is_signed_v<T>)
        return "int";
    else
        return "uint";
}

template <typename T>
void
Option<T>::parseValue(const std::string &text, const std::string &source)
{
    T parsed;
    if (!tryParseAs<T>(text, parsed)) {
        fatal("option '%s' (%s) expects a %s value, got '%s'",
              optName.c_str(), source.c_str(), typeName(),
              text.c_str());
    }
    if constexpr (!std::is_same_v<T, std::string>) {
        if ((loBound && parsed < *loBound) ||
            (hiBound && parsed > *hiBound)) {
            fatal("option '%s' (%s) value %s is outside [%s, %s]",
                  optName.c_str(), source.c_str(),
                  formatValue(parsed).c_str(),
                  formatValue(*loBound).c_str(),
                  formatValue(*hiBound).c_str());
        }
    }
    if (!allowedValues.empty()) {
        bool found = false;
        for (const T &a : allowedValues)
            found = found || a == parsed;
        if (!found) {
            fatal("option '%s' (%s) value '%s' is not one of: %s",
                  optName.c_str(), source.c_str(),
                  formatValue(parsed).c_str(),
                  constraintText().c_str());
        }
    }
    val = parsed;
    set = true;
}

template <typename T>
std::string
Option<T>::defaultText() const
{
    return formatValue(dflt);
}

template <typename T>
std::string
Option<T>::constraintText() const
{
    if (!allowedValues.empty()) {
        std::string out;
        for (const T &a : allowedValues) {
            if (!out.empty())
                out += "|";
            out += formatValue(a);
        }
        return out;
    }
    if constexpr (!std::is_same_v<T, std::string>) {
        if (loBound && hiBound) {
            return "[" + formatValue(*loBound) + ", " +
                formatValue(*hiBound) + "]";
        }
    }
    return "";
}

template <typename T>
Json
Option<T>::valueJson() const
{
    if constexpr (std::is_same_v<T, std::string>)
        return Json::string(val);
    else if constexpr (std::is_same_v<T, bool>)
        return Json::boolean(val);
    else if constexpr (std::is_floating_point_v<T>)
        return Json::number(double(val));
    else if constexpr (std::is_signed_v<T>)
        return Json::number(std::int64_t(val));
    else
        return Json::number(std::uint64_t(val));
}

template class Option<std::int64_t>;
template class Option<std::uint64_t>;
template class Option<unsigned>;
template class Option<double>;
template class Option<bool>;
template class Option<std::string>;

Options::Options(std::string program, std::string summary)
    : programName(std::move(program)), summaryText(std::move(summary))
{
}

Options::~Options() = default;

OptionBase *
Options::find(const std::string &name) const
{
    for (const auto &decl : decls) {
        if (decl->name() == name)
            return decl.get();
    }
    return nullptr;
}

template <typename T>
Option<T> &
Options::typed(const std::string &name) const
{
    OptionBase *base = find(name);
    if (!base)
        fatal("option '%s' was never declared", name.c_str());
    auto *opt = dynamic_cast<Option<T> *>(base);
    if (!opt) {
        fatal("option '%s' accessed as the wrong type (declared %s)",
              name.c_str(), base->typeName());
    }
    return *opt;
}

template <typename T>
Option<T> &
Options::add(const std::string &name, T dflt, const std::string &help)
{
    if (find(name))
        fatal("option '%s' declared twice", name.c_str());
    auto opt = std::make_unique<Option<T>>(name, std::move(dflt), help);
    Option<T> &ref = *opt;
    decls.push_back(std::move(opt));
    return ref;
}

Option<std::string> &
Options::add(const std::string &name, const char *dflt,
             const std::string &help)
{
    return add<std::string>(name, std::string(dflt), help);
}

template Option<std::int64_t> &
Options::add(const std::string &, std::int64_t, const std::string &);
template Option<std::uint64_t> &
Options::add(const std::string &, std::uint64_t, const std::string &);
template Option<unsigned> &
Options::add(const std::string &, unsigned, const std::string &);
template Option<double> &
Options::add(const std::string &, double, const std::string &);
template Option<bool> &
Options::add(const std::string &, bool, const std::string &);
template Option<std::string> &
Options::add(const std::string &, std::string, const std::string &);

void
Options::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string token(argv[i]);
        if (token == "--help" || token == "-h" || token == "help") {
            printHelp(std::cout);
            std::exit(0);
        }
        // Both spellings are accepted: the original "key=value" and
        // the GNU-style "--key=value" / "--key value" (a bare
        // "--flag" sets a bool option to true).
        const bool dashed =
            token.size() > 2 && token.compare(0, 2, "--") == 0;
        if (dashed)
            token.erase(0, 2);
        const auto eq = token.find('=');
        std::string key;
        std::string value;
        bool haveValue = false;
        if (eq != std::string::npos && eq != 0) {
            key = token.substr(0, eq);
            value = token.substr(eq + 1);
            haveValue = true;
        } else if (dashed && eq == std::string::npos) {
            key = token;
        } else {
            fatal("%s: expected key=value or --key value, got '%s' "
                  "(run with --help for the option list)",
                  programName.c_str(), argv[i]);
        }
        OptionBase *opt = find(key);
        if (!opt) {
            fatal("%s: unknown option '%s' "
                  "(run with --help for the option list)",
                  programName.c_str(), key.c_str());
        }
        if (!haveValue) {
            const bool isBool =
                std::string(opt->typeName()) == "bool";
            const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
            const bool nextIsOption = next &&
                (std::strncmp(next, "--", 2) == 0 ||
                 std::strchr(next, '=') != nullptr);
            if (next && !(isBool && nextIsOption)) {
                value = argv[++i];
            } else if (isBool) {
                value = "true"; // bare flag
            } else {
                fatal("%s: option '--%s' needs a value",
                      programName.c_str(), key.c_str());
            }
        }
        opt->parseValue(value, "command line");
    }

    // Environment fallback for anything the command line left unset.
    for (const auto &decl : decls) {
        if (decl->isSet())
            continue;
        const std::string env = envNameOf(decl->name());
        if (const char *v = std::getenv(env.c_str()))
            decl->parseValue(v, "environment " + env);
    }
}

bool
Options::has(const std::string &name) const
{
    const OptionBase *opt = find(name);
    if (!opt)
        fatal("option '%s' was never declared", name.c_str());
    return opt->isSet();
}

template <typename T>
const T &
Options::get(const std::string &name) const
{
    return typed<T>(name).value();
}

template const std::int64_t &Options::get(const std::string &) const;
template const std::uint64_t &Options::get(const std::string &) const;
template const unsigned &Options::get(const std::string &) const;
template const double &Options::get(const std::string &) const;
template const bool &Options::get(const std::string &) const;
template const std::string &Options::get(const std::string &) const;

void
Options::printHelp(std::ostream &os) const
{
    os << programName << " — " << summaryText << "\n\n"
       << "usage: " << programName
       << " [key=value | --key value ...]\n";
    if (decls.empty())
        return;
    os << "\noptions:\n";
    std::size_t width = 0;
    std::vector<std::string> left;
    for (const auto &decl : decls) {
        std::string item = "  " + decl->name() + "=<" +
            decl->typeName() + ">";
        width = std::max(width, item.size());
        left.push_back(std::move(item));
    }
    for (std::size_t n = 0; n < decls.size(); ++n) {
        const auto &decl = decls[n];
        os << left[n]
           << std::string(width + 2 - left[n].size(), ' ')
           << decl->help() << " (default: " << decl->defaultText();
        const std::string constraint = decl->constraintText();
        if (!constraint.empty())
            os << ", allowed: " << constraint;
        os << ")\n";
    }
    os << "\nUnset options fall back to KILLI_* environment "
          "variables (e.g. " << envNameOf(decls.front()->name())
       << ").\n";
}

Json
Options::toJson() const
{
    Json doc = Json::object();
    for (const auto &decl : decls)
        doc.set(decl->name(), decl->valueJson());
    return doc;
}

} // namespace killi
